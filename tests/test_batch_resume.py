"""Kill-and-resume chaos tests for the batch runtime.

A batch subprocess is SIGKILL'd at a randomized point mid-run — the one
failure the in-process tests cannot fake, because nothing gets to flush,
unwind, or handle anything.  The resumed batch must then produce the exact
result set of an uninterrupted run: no instance lost, none re-reported,
in-flight searches continued from their last durable checkpoint.  SIGTERM
gets the graceful variant: flush, journal an ``interrupted`` record, exit
with code 5.

All runs use the serial backend, where the search (and therefore every
witness placement) is deterministic — the resumed results must be
*identical*, not merely equivalent.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.instances import random_feasible_instance
from repro.io.journal import JOURNAL_NAME, TERMINAL_KINDS, read_journal
from repro.io.serialize import instance_to_dict
from repro.runtime import BatchRunner, ManifestEntry, run_batch

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _instances():
    """12 deterministic instances, ~0.3 s of serial solving total — long
    enough that a randomized kill lands mid-batch, short enough to afford
    dozens of chaos iterations.  The repeated instance needs ~1200 search
    nodes, so the total rests on the search, not on how fast the bounds
    run."""
    hard, _ = random_feasible_instance(
        random.Random(0), (5, 5, 5), 10, precedence_density=0.3
    )
    pairs = []
    for i in range(6):
        rng = random.Random(100 + i)
        inst, _ = random_feasible_instance(
            rng, (5, 5, 5), 6, precedence_density=0.3
        )
        pairs.append((f"r{i:02d}", inst))
        pairs.append((f"h{i:02d}", hard))
    return pairs


def _write_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"id": name, "instance": instance_to_dict(inst)}
                for name, inst in _instances()
            ]
        )
    )
    return str(manifest)


@pytest.fixture(scope="module")
def reference_identity(tmp_path_factory):
    """The result set of one uninterrupted run — what every killed-and-
    resumed run must reproduce exactly."""
    out = tmp_path_factory.mktemp("reference")
    entries = [ManifestEntry(name, inst) for name, inst in _instances()]
    result = run_batch(entries, str(out), fsync=False)
    assert result.ok
    return result.identity()


def _spawn_batch(manifest, out_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro", "batch"]
    if manifest is not None:
        argv.append(manifest)
    argv += ["--out", str(out_dir), *extra]
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )


def _wait_for_admission(out_dir, n_instances, deadline=30.0):
    """Block until the journal carries batch-start + every admission, i.e.
    the write-ahead point after which a resume knows the full work list."""
    journal = os.path.join(str(out_dir), JOURNAL_NAME)
    end = time.monotonic() + deadline
    want = 1 + n_instances
    while time.monotonic() < end:
        try:
            with open(journal, "rb") as handle:
                if handle.read().count(b"\n") >= want:
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.005)
    raise AssertionError("batch subprocess never admitted its instances")


def _kill_and_resume(tmp_path, seed, reference_identity):
    """One chaos iteration: SIGKILL at a seeded random delay, then resume
    in-process and check the invariants."""
    rng = random.Random(seed)
    manifest = _write_manifest(tmp_path)
    out = tmp_path / f"run-{seed}"
    proc = _spawn_batch(manifest, out)
    try:
        _wait_for_admission(out, 12)
        time.sleep(rng.uniform(0.0, 0.4))
        proc.kill()  # SIGKILL: no handler, no flush, no goodbye
    finally:
        proc.wait(timeout=30)

    resumed = BatchRunner(str(out), fsync=False).resume()
    assert not resumed.interrupted
    assert resumed.identity() == reference_identity, (
        f"seed {seed}: resumed result set diverged from the reference"
    )

    # No instance may carry more than one terminal record — re-reporting
    # a finished instance is exactly the bug the journal exists to prevent.
    terminal_ids = [
        record["id"]
        for record in read_journal(str(out / JOURNAL_NAME)).records
        if record["kind"] in TERMINAL_KINDS
    ]
    assert sorted(terminal_ids) == sorted(set(terminal_ids))
    assert len(terminal_ids) == 12


class TestSigkillChaos:
    @pytest.mark.parametrize("seed", range(5))
    def test_kill_and_resume_reproduces_reference(
        self, tmp_path, seed, reference_identity
    ):
        _kill_and_resume(tmp_path, seed, reference_identity)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(5, 55))
    def test_kill_and_resume_extended(
        self, tmp_path, seed, reference_identity
    ):
        _kill_and_resume(tmp_path, seed, reference_identity)

    def test_double_kill_then_cli_resume(self, tmp_path, reference_identity):
        """Two consecutive hard kills, then a resume through the real CLI:
        the journal must survive repeated mutilation and the CLI resume
        must converge to the reference result set with exit code 0."""
        manifest = _write_manifest(tmp_path)
        out = tmp_path / "out"
        for delay in (0.05, 0.12):
            proc = _spawn_batch(
                manifest if not out.exists() else None,
                out,
                *(() if not (out / JOURNAL_NAME).exists() else ("--resume",)),
            )
            try:
                _wait_for_admission(out, 12)
                time.sleep(delay)
                proc.kill()
            finally:
                proc.wait(timeout=30)

        proc = _spawn_batch(None, out, "--resume")
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode()
        resumed = BatchRunner(str(out), fsync=False).resume()
        assert resumed.identity() == reference_identity


class TestSigtermGraceful:
    def test_sigterm_flushes_and_exits_5(self, tmp_path, reference_identity):
        manifest = _write_manifest(tmp_path)
        out = tmp_path / "out"
        proc = _spawn_batch(manifest, out)
        interrupted_midway = True
        try:
            _wait_for_admission(out, 12)
            time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
        finally:
            stdout, stderr = proc.communicate(timeout=30)

        if proc.returncode == 0:
            # The batch won the race and finished before the signal
            # landed; nothing to resume, but the invariant still holds.
            interrupted_midway = False
        else:
            assert proc.returncode == 5, stderr.decode()
            records = read_journal(str(out / JOURNAL_NAME)).records
            assert records[-1]["kind"] == "interrupted"

        resumed = BatchRunner(str(out), fsync=False).resume()
        assert resumed.identity() == reference_identity
        if interrupted_midway:
            assert any(o.replayed for o in resumed.outcomes.values())
