"""CLI smoke tests (the experiment commands are exercised end to end)."""

import json
import re

import pytest

from repro.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_UNSAT,
    build_parser,
    exit_code_for_status,
    main,
)


def _write_instance(tmp_path, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    return str(path)


SAT_INSTANCE = {
    "boxes": [
        {"widths": [1, 1, 1], "name": "a"},
        {"widths": [1, 1, 1], "name": "b"},
    ],
    "container": [2, 2, 2],
    "precedence": [[0, 1]],
    "time_axis": 2,
}

#: Eight boxes that neither bounds nor the greedy heuristic decide; the
#: search needs a few hundred nodes.
SEARCH_INSTANCE = {
    "boxes": [
        {"widths": w, "name": f"h{i}"}
        for i, w in enumerate([
            [4, 3, 4], [1, 1, 4], [4, 2, 1], [2, 2, 1],
            [3, 2, 2], [2, 1, 2], [2, 1, 4], [1, 4, 2],
        ])
    ],
    "container": [4, 5, 6],
    "precedence": None,
    "time_axis": 2,
}

UNSAT_INSTANCE = {
    "boxes": [{"widths": [3, 3, 3], "name": "big"}],
    "container": [2, 2, 2],
    "precedence": None,
    "time_axis": 2,
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "fig7", "demo"):
            assert parser.parse_args([cmd]).command == cmd

    def test_solve_arguments(self):
        args = build_parser().parse_args(
            ["solve", "inst.json", "--time-limit", "5"]
        )
        assert args.instance == "inst.json"
        assert args.time_limit == 5.0

    def test_solve_parallel_arguments(self):
        args = build_parser().parse_args(
            ["solve", "inst.json", "--workers", "4", "--cache", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.cache == "/tmp/c"

    def test_optimizers_accept_workers_and_cache(self):
        parser = build_parser()
        for cmd in ("bmp", "spp", "area", "pareto"):
            extra = ["--width", "8"] if cmd == "spp" else ["--time", "8"]
            args = parser.parse_args(
                [cmd, "@de", *extra, "--workers", "2", "--cache", "/tmp/c"]
            )
            assert args.workers == 2
            assert args.cache == "/tmp/c"


class TestExitCodes:
    def test_status_mapping(self):
        assert exit_code_for_status("sat") == EXIT_OK
        assert exit_code_for_status("optimal") == EXIT_OK
        assert exit_code_for_status("unsat") == EXIT_UNSAT
        assert exit_code_for_status("infeasible") == EXIT_UNSAT
        assert exit_code_for_status("unknown") == EXIT_UNKNOWN

    def test_solve_unsat_exits_2(self, tmp_path, capsys):
        path = _write_instance(tmp_path, UNSAT_INSTANCE)
        assert main(["solve", path]) == EXIT_UNSAT
        assert "status: unsat" in capsys.readouterr().out

    def test_solve_unknown_exits_3(self, tmp_path, capsys):
        # Neither bounds nor the greedy heuristic decide this instance, and a
        # zero time budget stops the search: the solver must give up, not
        # guess.
        path = _write_instance(tmp_path, SEARCH_INSTANCE)
        assert main(["solve", path, "--time-limit", "0"]) == EXIT_UNKNOWN
        assert "status: unknown" in capsys.readouterr().out

    def test_vector_kernel_alias_matches_bitmask(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SEARCH_INSTANCE)
        runs = {}
        for kernel in ("bitmask", "vector"):
            assert main(["solve", path, "--kernel", kernel, "--metrics"]) == EXIT_OK
            out = capsys.readouterr().out
            nodes = re.search(r"nodes expanded:\s+(\d+)", out).group(1)
            runs[kernel] = (out.splitlines()[0], int(nodes))
        assert runs["vector"] == runs["bitmask"]
        assert runs["bitmask"][1] > 0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "32x32" in out and "17x17" in out and "16x16" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "59" in out and "64x64" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "with precedence" in out and "without precedence" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "makespan 6" in out

    def test_solve_sat(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SAT_INSTANCE)
        assert main(["solve", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: sat" in out

    def test_solve_with_portfolio(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SAT_INSTANCE)
        assert main(["solve", path, "--workers", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: sat" in out
        assert "winner:" in out and "backend:" in out

    def test_solve_with_cache_dir(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SAT_INSTANCE)
        store = tmp_path / "cache"
        assert main(["solve", path, "--cache", str(store)]) == EXIT_OK
        assert list(store.iterdir()), "no cache entry written to disk"
        assert main(["solve", path, "--cache", str(store)]) == EXIT_OK
        assert "status: sat" in capsys.readouterr().out

    def test_bmp_with_workers(self, capsys):
        assert main(["bmp", "@fir4", "--time", "4", "--workers", "2"]) == EXIT_OK
        assert "minimal square chip" in capsys.readouterr().out

    def test_bmp_builtin_graph(self, capsys):
        assert main(["bmp", "@de", "--time", "14"]) == 0
        assert "16x16" in capsys.readouterr().out

    def test_bmp_infeasible_deadline(self, capsys):
        assert main(["bmp", "@de", "--time", "5"]) == EXIT_UNSAT
        assert "infeasible" in capsys.readouterr().out

    def test_spp_builtin_graph(self, capsys):
        assert main(["spp", "@fir4", "--width", "32"]) == 0
        assert "4 cycles" in capsys.readouterr().out

    def test_area_command(self, capsys):
        assert main(["area", "@de", "--time", "6"]) == 0
        out = capsys.readouterr().out
        assert "768 cells" in out

    def test_pareto_command(self, capsys):
        assert main(["pareto", "@fir4"]) == 0
        out = capsys.readouterr().out
        assert "32x32" in out

    def test_pareto_ignore_dependencies(self, capsys):
        assert main(["pareto", "@fir4", "--ignore-dependencies"]) == 0
        out = capsys.readouterr().out
        assert "h_t" in out

    def test_svg_command(self, tmp_path, capsys):
        prefix = str(tmp_path / "sched")
        assert main(
            ["svg", "@fir4", "--width", "32", "--time", "4", "--output", prefix]
        ) == 0
        assert (tmp_path / "sched_gantt.svg").exists()
        assert (tmp_path / "sched_floorplan.svg").exists()

    def test_graph_from_json_file(self, tmp_path, capsys):
        from repro.instances.dsp import fir_filter_task_graph
        from repro.io import dumps, task_graph_to_dict

        path = tmp_path / "graph.json"
        path.write_text(dumps(task_graph_to_dict(fir_filter_task_graph(2))))
        assert main(["bmp", str(path), "--time", "3"]) == 0
        assert "minimal square chip" in capsys.readouterr().out

    def test_unknown_builtin_rejected(self, capsys):
        assert main(["bmp", "@nonsense", "--time", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "unknown builtin graph" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exits_4(self, capsys):
        assert main(["solve", "/no/such/file.json"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_4(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["solve", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "malformed" in err
        assert len(err.strip().splitlines()) == 1

    def test_wrong_shape_json_exits_4(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"tasks": "nope"}))
        assert main(["bmp", str(path), "--time", "3"]) == EXIT_INPUT
        assert "malformed" in capsys.readouterr().err

    def test_negative_time_limit_exits_4(self, capsys):
        assert main(["bmp", "@fir2", "--time", "3", "--time-limit", "-1"]) == EXIT_INPUT
        assert "time_limit" in capsys.readouterr().err

    def test_sweep_deadline_accepted(self, capsys):
        assert (
            main(["bmp", "@fir2", "--time", "3", "--deadline", "30"])
            == EXIT_OK
        )
        assert "minimal square chip" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "32x32" in out and "64x64" in out
        assert "free-aspect" in out

    def test_solve_unsat(self, tmp_path, capsys):
        path = _write_instance(tmp_path, UNSAT_INSTANCE)
        assert main(["solve", path]) == EXIT_UNSAT
        assert "status: unsat" in capsys.readouterr().out


class TestTelemetryFlags:
    """--trace / --metrics are available on every subcommand."""

    def test_every_subcommand_has_the_flags(self):
        parser = build_parser()
        cases = {
            "table1": [], "table2": [], "fig7": [], "demo": [], "report": [],
            "solve": ["inst.json"],
            "bmp": ["@de", "--time", "8"],
            "spp": ["@de", "--width", "8"],
            "area": ["@de", "--time", "8"],
            "pareto": ["@de"],
            "svg": ["@de", "--width", "8", "--time", "8"],
        }
        for cmd, extra in cases.items():
            args = parser.parse_args([cmd, *extra, "--trace", "t.jsonl", "--metrics"])
            assert args.trace == "t.jsonl", cmd
            assert args.metrics is True, cmd

    def test_trace_writes_jsonl_span_tree(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["bmp", "@fir2", "--time", "3", "--trace", str(trace)]) == EXIT_OK
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        spans = [d for d in lines if d["type"] == "span"]
        names = {d["name"] for d in spans}
        assert {"solve", "probe"} <= names
        solve_span = next(d for d in spans if d["name"] == "solve")
        assert solve_span["attrs"]["problem"] == "bmp"
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["histograms"]["probe.seconds"]["count"] > 0

    def test_metrics_prints_summary(self, capsys):
        assert main(["bmp", "@fir2", "--time", "3", "--metrics"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "nodes expanded" in out
        assert "probes:" in out

    def test_solve_with_trace_and_cache(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SAT_INSTANCE)
        trace = tmp_path / "t.jsonl"
        store = tmp_path / "cache"
        assert (
            main(["solve", path, "--cache", str(store), "--trace", str(trace)])
            == EXIT_OK
        )
        assert trace.exists()
        # Second run hits the cache; the metrics line must say so.
        trace2 = tmp_path / "t2.jsonl"
        assert (
            main([
                "solve", path, "--cache", str(store),
                "--trace", str(trace2), "--metrics",
            ])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "hit rate 100.0%" in out
        lines = [json.loads(l) for l in trace2.read_text().splitlines()]
        assert lines[-1]["counters"].get("cache.hits") == 1

    def test_failed_command_still_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert (
            main(["bmp", "@de", "--time", "5", "--trace", str(trace)])
            == EXIT_UNSAT
        )
        assert trace.exists()

    def test_unwritable_trace_path_reports_input_error(self, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        assert main(["bmp", "@fir2", "--time", "3", "--trace", str(bad)]) == EXIT_INPUT
        assert "cannot write trace" in capsys.readouterr().err

    def test_no_flags_no_telemetry_output(self, capsys):
        assert main(["bmp", "@fir2", "--time", "3"]) == EXIT_OK
        assert "telemetry summary" not in capsys.readouterr().out


class TestBatchCommand:
    def _manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "s", "instance": SAT_INSTANCE},
                    {"id": "u", "instance": UNSAT_INSTANCE},
                ]
            )
        )
        return str(path)

    def test_batch_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "batch"
        code = main(["batch", self._manifest(tmp_path), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "s: done (sat" in captured
        assert "u: done (unsat" in captured
        assert "2 done" in captured
        assert (out / "journal.jsonl").exists()

    def test_batch_resume_conflicts_with_manifest(self, tmp_path, capsys):
        code = main(
            [
                "batch", self._manifest(tmp_path),
                "--out", str(tmp_path / "b"), "--resume",
            ]
        )
        assert code == EXIT_INPUT
        assert "resume" in capsys.readouterr().err

    def test_batch_needs_manifest_or_resume(self, tmp_path, capsys):
        assert main(["batch", "--out", str(tmp_path / "b")]) == EXIT_INPUT

    def test_batch_resume_of_finished_batch(self, tmp_path, capsys):
        out = tmp_path / "batch"
        assert main(
            ["batch", self._manifest(tmp_path), "--out", str(out)]
        ) == EXIT_OK
        capsys.readouterr()
        assert main(["batch", "--resume", "--out", str(out)]) == EXIT_OK
        assert "2 done" in capsys.readouterr().out

    def test_batch_missing_manifest_file_exits_4(self, tmp_path, capsys):
        code = main(
            ["batch", str(tmp_path / "nope.json"), "--out", str(tmp_path / "b")]
        )
        assert code == EXIT_INPUT

    def test_certify_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "batch"
        assert main(
            ["batch", self._manifest(tmp_path), "--out", str(out)]
        ) == EXIT_OK
        capsys.readouterr()
        assert main(["certify", str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "s: certified" in captured
        assert "u: certified" in captured

    def test_certify_without_journal_exits_4(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path)]) == EXIT_INPUT
        assert "journal" in capsys.readouterr().err
