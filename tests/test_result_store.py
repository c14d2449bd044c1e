"""Tests for the sqlite-backed result store behind every sweep-layer cache.

Covers read-your-writes inside an open batch, writers that do not block
each other between commits, crash safety (a process
killed mid-batch leaves each entry whole or absent), legacy and garbage
files at the store location, commits on failure, and a parallel
campaign run against a store the parent opened before the pool forked,
and a forked child that opens its own connection to the store.
"""

import json
import multiprocessing
import os
import sqlite3
from dataclasses import asdict

import pytest

from repro.campaign import CampaignCache, enumerate_grid, run_campaign
from repro.sweep import JSONCache, run_tasks
from repro.sweep import runner as runner_mod
from repro.sweep.cache import BATCH_PUTS, STORE_NAME


def _key(i: int) -> str:
    return f"{i:064x}"


def _value(i: int) -> dict:
    return {"index": i, "payload": [i, str(i) * 7, {"nested": [i, None, True]}]}


def test_get_sees_uncommitted_put(tmp_path):
    cache = JSONCache(tmp_path)
    cache.put(_key(1), _value(1))
    assert JSONCache(tmp_path).get(_key(1)) is None  # not committed yet
    assert cache.get(_key(1)) == _value(1)
    assert (cache.hits, cache.misses) == (1, 0)


def test_open_batch_does_not_block_another_writer(tmp_path):
    first, second = JSONCache(tmp_path), JSONCache(tmp_path)
    first.put(_key(1), _value(1))
    second.put(_key(2), _value(2))
    second.flush()  # would wait on the first cache's write lock if it held one
    first.flush()
    reader = JSONCache(tmp_path)
    assert [reader.get(_key(1)), reader.get(_key(2))] == [_value(1), _value(2)]


def test_flush_makes_puts_visible_to_another_reader(tmp_path):
    writer = JSONCache(tmp_path)
    writer.put(_key(1), _value(1))
    assert JSONCache(tmp_path).get(_key(1)) is None  # not committed yet
    writer.flush()
    assert JSONCache(tmp_path).get(_key(1)) == _value(1)


def _put_then_die(root: str, count: int) -> None:
    cache = JSONCache(root)
    for i in range(count):
        cache.put(_key(i), _value(i))
    os._exit(0)  # no flush, no finalizers: killed mid-batch


def test_killed_writer_leaves_each_entry_whole_or_absent(tmp_path):
    count = BATCH_PUTS + 40
    child = multiprocessing.get_context("fork").Process(
        target=_put_then_die, args=(str(tmp_path), count)
    )
    child.start()
    child.join(60)
    assert child.exitcode == 0

    cache = JSONCache(tmp_path)
    found = [cache.get(_key(i)) for i in range(count)]
    for i, value in enumerate(found):
        assert value is None or value == _value(i)
    # The first full batch was committed; the open one was lost whole.
    assert found[:BATCH_PUTS] == [_value(i) for i in range(BATCH_PUTS)]
    assert found[BATCH_PUTS:] == [None] * 40
    # The store opens cleanly and takes new writes.
    cache.put(_key(count), _value(count))
    cache.flush()
    assert JSONCache(tmp_path).get(_key(count)) == _value(count)
    check = sqlite3.connect(tmp_path / STORE_NAME)
    assert check.execute("PRAGMA integrity_check").fetchone() == ("ok",)
    check.close()


def _put_from_child(cache: JSONCache, parent_conn_id: int) -> None:
    own = cache._store()
    cache.put(_key(9), _value(9))
    cache.flush()
    os._exit(0 if own is not None and id(own) != parent_conn_id else 1)


def test_forked_child_opens_its_own_connection(tmp_path):
    cache = JSONCache(tmp_path)
    assert cache.get(_key(9)) is None  # the parent's connection is open
    child = multiprocessing.get_context("fork").Process(
        target=_put_from_child, args=(cache, id(cache._conn))
    )
    child.start()
    child.join(60)
    assert child.exitcode == 0
    assert cache.get(_key(9)) == _value(9)  # the child's commit, seen here


def test_legacy_per_file_tree_reads_as_miss(tmp_path):
    key = _key(7)
    legacy = tmp_path / key[:2] / f"{key}.json"
    legacy.parent.mkdir(parents=True)
    legacy.write_text(json.dumps(_value(7)), encoding="utf-8")
    cache = JSONCache(tmp_path)
    assert cache.get(key) is None
    assert cache.misses == 1
    cache.put(key, _value(8))
    assert cache.get(key) == _value(8)


def test_garbage_store_file_reads_as_misses(tmp_path):
    (tmp_path / STORE_NAME).write_bytes(b"not a database \x00\xff" * 512)
    cache = JSONCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="not a readable result store"):
        assert cache.get(_key(1)) is None
    cache.put(_key(1), _value(1))  # dropped, never a traceback
    cache.flush()
    assert cache.get(_key(1)) is None
    assert (cache.hits, cache.misses) == (0, 2)


class _Interrupted(Exception):
    pass


def _double_or_interrupt(spec: int) -> int:
    if spec == 3:
        raise _Interrupted
    return spec * 2


def test_run_tasks_commits_finished_results_on_failure(tmp_path):
    cache = JSONCache(tmp_path)
    specs = [1, 2, 3, 4]
    with pytest.raises(_Interrupted):
        run_tasks(specs, [_key(s) for s in specs], _double_or_interrupt, workers=1, cache=cache)
    reader = JSONCache(tmp_path)
    assert [reader.get(_key(s)) for s in specs] == [2, 4, None, None]


def test_parallel_campaign_on_store_opened_before_fork(tmp_path):
    scenarios = enumerate_grid(schemes=["sp", "unordered"], workloads=["ordered_pair"])
    sequential, _ = run_campaign(scenarios, workers=1, cache=False)

    runner_mod.shutdown_pool()  # the pool forks after the store is open
    cache = CampaignCache(tmp_path)
    assert cache.get(_key(0)) is None
    parallel, report = run_campaign(scenarios, workers=2, cache=cache)
    assert report.executed == len(scenarios)

    def encode(cells):
        return [json.dumps(asdict(cell), sort_keys=True) for cell in cells]

    assert encode(parallel) == encode(sequential)
    warm, warm_report = run_campaign(scenarios, workers=2, cache=CampaignCache(tmp_path))
    assert warm_report.cache_hits == len(scenarios)
    assert encode(warm) == encode(sequential)
