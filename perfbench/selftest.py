"""Self-test of the output check: a clean replay passes, each corruption fails.

Replays a small generated stream once, checks its artifacts, then applies
one corruption at a time to a copy of them and requires the check to reject
every copy. Exit code 0 when all of that holds.

    python3 perfbench/selftest.py      # from the repository root
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_replay, observe_labels  # noqa: E402
from workloads import Workload, generate  # noqa: E402

SMALL = Workload(
    "selftest",
    dict(schedule="sudden", n_windows=3, window_size=1000, dim=8, corroborative_fraction=0.1),
    thin_geo=True,
)


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _edit_first_decided(path: Path, change) -> None:
    def edit(lines):
        for i, line in enumerate(lines):
            row = json.loads(line)
            if row["p"] is not None:
                change(row)
                lines[i] = json.dumps(row, separators=(",", ":")) + "\n"
                break
        return lines
    _edit_lines(path, edit)


def _undercount_labels(path: Path, by: int) -> None:
    def edit(lines):
        row = json.loads(lines[1])
        row["corroborative"] -= by
        lines[1] = json.dumps(row, separators=(",", ":")) + "\n"
        return lines
    _edit_lines(path, edit)


# name -> (artifact edit, labeled-id edit)
CORRUPTIONS = {
    "decision row missing": (
        lambda d: _edit_lines(d / "decisions.jsonl", lambda ls: ls[:-1]), None),
    "p outside [0, 1]": (
        lambda d: _edit_first_decided(d / "decisions.jsonl", lambda r: r.update(p=1.5)), None),
    "label disagrees with p": (
        lambda d: _edit_first_decided(
            d / "baseline_decisions.jsonl", lambda r: r.update(label=1 - r["label"])), None),
    "report row missing": (
        lambda d: _edit_lines(d / "reports.csv", lambda ls: ls[:-1]), None),
    "window label count wrong": (
        lambda d: _undercount_labels(d / "window_stats.jsonl", 1), None),
    "fewer labels than centres, labeler not observable": (
        lambda d: _undercount_labels(d / "window_stats.jsonl", 20), lambda ids, inputs: None),
    "event centre unlabeled": (
        None, lambda ids, inputs: [pid for pid in ids if pid != min(inputs.centres[1])]),
    "decisions file missing": (lambda d: (d / "decisions.jsonl").unlink(), None),
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from driftstream.pipeline import load_config, replay

    work = root / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(SMALL, 7, work / "data")
        clean = work / "clean"
        with observe_labels() as labels:
            replay(inputs.stream, inputs.events, load_config(inputs.config), out_dir=clean)
        ids = labels.ids
        failures = 0
        outcome = check_replay(clean, inputs, ids)
        print(f"{'PASS' if not outcome.errors else 'FAIL'}  clean replay accepted {outcome.errors}")
        failures += bool(outcome.errors)
        for name, (edit_files, edit_ids) in CORRUPTIONS.items():
            copy = work / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            if edit_files:
                edit_files(copy)
            outcome = check_replay(copy, inputs, edit_ids(ids, inputs) if edit_ids else ids)
            detected = bool(outcome.errors)
            print(f"{'PASS' if detected else 'FAIL'}  {name}: "
                  f"{outcome.errors[0] if detected else 'not detected'}")
            failures += not detected
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
