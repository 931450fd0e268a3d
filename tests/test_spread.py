"""`verify.run_all` spread over forked workers.

The worker count is forced by replacing `verify._workers`; `os.fork`
works on a one-CPU machine too.  Every run, serial or spread, must give
the same reports and the same JSON bytes, and a crash anywhere must exit
3 and leave no child process behind.
"""

import contextlib
import hashlib
import io
import json
import os
import select
import sys
import time

import pytest

from sl2ext import cli, verify

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.path.insert(0, os.path.join(HERE, "golden"))

from make_goldens import load_configs  # noqa: E402
from workloads import WORKLOADS, cli_args  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "perfbench", "reference.json")) as fh:
    REFERENCE = json.load(fh)


def _expected(name: str) -> tuple:
    """(argv, sha256 of the report bytes) of a benchmark workload or a golden."""
    if name in WORKLOADS:
        config = WORKLOADS[name]
        return cli_args(config), REFERENCE[name][str(config["theta_exp"])]["sha256"]
    with open(os.path.join(HERE, "golden", f"{name}.json"), "rb") as fh:
        return load_configs()[name].split(), hashlib.sha256(fh.read()).hexdigest()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_workers(monkeypatch, workers: int) -> list:
    """Forces the worker count; returns the instance counts asked for."""
    counts = []

    def forced(count):
        counts.append(count)
        return min(workers, count)

    monkeypatch.setattr(verify, "_workers", forced)
    return counts


def _count_forks(monkeypatch) -> list:
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _verify(argv: list, out=None) -> int:
    extra = ["--out", str(out)] if out else []
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", *argv, *extra])


@pytest.mark.parametrize("name", ["default-cyclo", "odd-fp", "cocycle-q3", "q5-i2-fp-ext1-cap", "q2-i7"])
def test_serial_and_spread_runs_agree(name, monkeypatch, tmp_path):
    argv, sha = _expected(name)
    real_run_all = cli.run_all
    runs = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            counts = _force_workers(m, workers)
            forks = _count_forks(m)
            reports = []
            m.setattr(cli, "run_all", lambda ctx: reports.extend(real_run_all(ctx)) or reports)
            out = tmp_path / f"{workers}.json"
            assert _verify(argv, out) == 0
            _no_child_left()
        assert len(forks) == max(min(workers, counts[0]), 1) - 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
        runs.append([r.to_json() for r in reports])
    assert runs[0] == runs[1] == runs[2]


ARGV = ["--q", "2", "--imax", "2", "--lemmas", "sus,bruhat,M-dims"]  # six instances


@pytest.fixture
def staged(monkeypatch):
    """Two workers, and check bodies that act by the process they run in:
    `staged(in_parent, in_worker)` installs them.  A worker first writes a
    byte to a pipe, and the parent's body waits for it, so the worker
    takes an instance before the parent ends its first one."""
    _force_workers(monkeypatch, 2)
    parent = os.getpid()
    ready, started = os.pipe()

    def install(in_parent, in_worker):
        def body(real, ctx, params):
            if os.getpid() == parent:
                select.select([ready], [], [], 30)
                return in_parent(real, ctx, params)
            os.write(started, b"!")
            return in_worker(real, ctx, params)

        for lemma_id in ("sus", "bruhat", "M-dims"):
            check = verify.CHECKS[lemma_id]
            monkeypatch.setitem(verify.CHECKS, lemma_id,
                                check._replace(body=lambda ctx, params, real=check.body: body(real, ctx, params)))

    yield install
    os.close(ready)
    os.close(started)


def _raises(message):
    def act(real, ctx, params):
        raise RuntimeError(message)

    return act


def _runs(real, ctx, params):
    return real(ctx, params)


def test_a_crash_in_a_worker_exits_3_with_its_traceback(staged, capsys):
    staged(_runs, _raises("boom in a worker"))
    assert _verify(ARGV) == 3
    err = capsys.readouterr().err
    assert "boom in a worker" in err and err.count("Traceback") >= 2
    assert any(f"crashed in {lemma_id} " in err for lemma_id in ("sus", "bruhat", "M-dims"))
    _no_child_left()


def test_a_worker_crash_removes_the_out_file_it_created(staged, tmp_path, capsys):
    staged(_runs, _raises("boom in a worker"))
    out = tmp_path / "new.json"
    assert _verify(ARGV, out) == 3
    assert not out.exists()
    _no_child_left()


def test_a_worker_crash_keeps_the_previous_report(staged, tmp_path, capsys):
    staged(_runs, _raises("boom in a worker"))
    out = tmp_path / "old.json"
    out.write_text("the previous report\n")
    assert _verify(ARGV, out) == 3
    assert out.read_text() == "the previous report\n"
    _no_child_left()


def test_a_worker_that_dies_without_a_result_exits_3(staged, capsys):
    staged(_runs, lambda real, ctx, params: os._exit(1))
    assert _verify(ARGV) == 3
    assert "died without a result" in capsys.readouterr().err
    _no_child_left()


def test_a_raise_in_the_parent_kills_the_working_children(staged, capsys):
    staged(_raises("boom in the parent"), lambda real, ctx, params: time.sleep(60))
    start = time.monotonic()
    assert _verify(ARGV) == 3
    assert time.monotonic() - start < 30
    assert "boom in the parent" in capsys.readouterr().err
    _no_child_left()


def _context(argv: list) -> verify.Context:
    return verify.Context(cli._config_from_args(cli.make_parser().parse_args(["verify", *argv])))


def _serial(monkeypatch, argv: list) -> list:
    """The reports of a run with one worker."""
    with monkeypatch.context() as m:
        _force_workers(m, 1)
        return verify.run_all(_context(argv))


def test_a_queue_past_one_pipe_write_runs_serially(monkeypatch):
    argv = ["--q", "2", "--imax", "3", "--coeff", "fp", "--lemmas", "sus,bruhat,clm-4,ineq-36"]
    serial = _serial(monkeypatch, argv)
    counts = _force_workers(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    assert verify.run_all(_context(argv)) == serial
    n = counts[-1]
    assert n > 3 and len(forks) == 2
    monkeypatch.setattr(select, "PIPE_BUF", 4 * n)  # the whole queue still fits one write
    assert verify.run_all(_context(argv)) == serial and len(forks) == 4
    monkeypatch.setattr(select, "PIPE_BUF", 4 * n - 1)
    assert verify.run_all(_context(argv)) == serial and len(forks) == 4
    _no_child_left()


@pytest.mark.parametrize("cpus, count, workers", [({0}, 40, 1), ({0, 1}, 40, 2), ({0, 1, 2, 3}, 3, 3),
                                                  ({0, 1}, 0, 0)])
def test_one_worker_per_usable_cpu_and_instance(cpus, count, workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert verify._workers(count) == workers


def test_a_wrapped_runner_runs_every_instance_here(monkeypatch):
    argv = ["--q", "2", "--imax", "2", "--theta-exp", "1"]
    serial = _serial(monkeypatch, argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _count_forks(monkeypatch)
    calls = []
    real = verify.run_lemma

    def counted(ctx, spec):
        calls.append(spec)
        return real(ctx, spec)

    monkeypatch.setattr(verify, "run_lemma", counted)
    sizes = []
    real_run_specs = verify._run_specs
    monkeypatch.setattr(verify, "_run_specs", lambda ctx, specs: sizes.append(len(specs)) or real_run_specs(ctx, specs))
    assert verify.run_all(_context(argv)) == serial and not forks
    assert len(calls) == sizes[0] > 1


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_without_fork_or_affinity_one_worker(missing, monkeypatch):
    monkeypatch.delattr(os, missing)
    assert verify._workers(40) == 1


def test_one_cpu_runs_the_serial_loop(monkeypatch):
    argv = ["--q", "2", "--imax", "2", "--theta-exp", "1"]
    serial = _serial(monkeypatch, argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = _count_forks(monkeypatch)
    assert verify.run_all(_context(argv)) == serial and not forks
