"""Repository benchmark: cold headline matrix, warm knob sweep, bounded
stream and crash campaign, with per-layer traced runs (see run.py)."""
