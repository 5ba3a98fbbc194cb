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


PAPER_TABLE1 = [("6", "32x32"), ("13", "17x17"), ("14", "16x16")]


def _report(capsys):
    assert main(["report"]) == 0
    return capsys.readouterr().out


def _rows(section):
    """(h_t, chip) pairs at the start of a report section's lines."""
    return re.findall(r"^(\d+)\s+(\d+x\d+)", section, re.M)


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
        for cmd in ("report", "demo"):
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
        extras = {
            "bmp": ["--time", "8"],
            "spp": ["--width", "8"],
            "area": ["--time", "8"],
            "pareto": [],
            "svg": ["--width", "8", "--time", "8"],
        }
        for cmd, extra in extras.items():
            args = parser.parse_args(
                [cmd, "@de", *extra, "--workers", "2", "--cache", "/tmp/c",
                 "--deadline", "30"]
            )
            assert args.workers == 2, cmd
            assert args.cache == "/tmp/c", cmd
            assert args.deadline == 30.0, cmd


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

    def test_svg_honours_cache(self, tmp_path, capsys):
        store = tmp_path / "cache"
        prefix = str(tmp_path / "sched")
        assert main([
            "svg", "@de", "--width", "32", "--time", "6",
            "--cache", str(store), "--output", prefix,
        ]) == EXIT_OK
        assert list(store.glob("*.json")), "no verdict written to --cache"

    def test_portfolio_honours_learning(self, tmp_path, capsys):
        path = _write_instance(tmp_path, SEARCH_INSTANCE)
        assert main(
            ["solve", path, "--workers", "2", "--learning", "--metrics"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        learned = re.search(r"conflict learning:\s+(\d+) nogoods learned", out)
        assert learned is not None, out
        assert int(learned.group(1)) > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{inst}", "--cache", "{file}"],
            ["bmp", "@fir2", "--time", "3", "--cache", "{file}"],
            ["batch", "{inst}", "--out", "{dir}", "--cache", "{file}"],
            ["serve", "--dir", "{dir}", "--cache", "{file}"],
            ["spp", "@de", "--width", "0"],
            ["dsolve", "{inst}", "--workers", "0"],
            [
                "dsolve", "{inst}",
                "--lease-duration", "0.1", "--heartbeat-interval", "1",
            ],
            [
                "batch", "{inst}", "--out", "{dir}",
                "--checkpoint-interval", "-1",
            ],
        ],
        ids=[
            "solve-cache-file", "bmp-cache-file", "batch-cache-file",
            "serve-cache-file", "spp-zero-width", "dsolve-zero-workers",
            "dsolve-heartbeat-above-lease", "batch-negative-checkpoint",
        ],
    )
    def test_bad_option_value_exits_4(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        fill = {
            "{inst}": _write_instance(tmp_path, SAT_INSTANCE),
            "{file}": str(taken),
            "{dir}": str(tmp_path / "out"),
        }
        assert main([fill.get(arg, arg) for arg in argv]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_value_error_inside_a_solve_stays_a_bug(self, monkeypatch):
        import repro.cli

        def broken(*args, **kwargs):
            raise ValueError("solver bug")

        monkeypatch.setattr(repro.cli, "solve", broken)
        with pytest.raises(ValueError, match="solver bug"):
            main(["bmp", "@fir2", "--time", "3"])

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
        out = _report(capsys)
        assert "Reproduction report" in out
        assert "free-aspect DE chip at h_t=6: 16x48" in out

    def test_table1(self, capsys):
        table1 = _report(capsys).split("Table 1")[1].split("Figure 7")[0]
        assert _rows(table1) == PAPER_TABLE1

    def test_fig7(self, capsys):
        fig7 = _report(capsys).split("Figure 7")[1].split("Table 2")[0]
        solid, dashed = fig7.split("without precedence")
        assert "with precedence" in solid and _rows(solid) == PAPER_TABLE1
        assert _rows(dashed) == [
            ("2", "48x48"), ("4", "32x32"), ("12", "17x17"), ("13", "16x16")
        ]

    def test_table2(self, capsys):
        table2 = _report(capsys).split("Table 2")[1].split("Extensions")[0]
        assert re.search(r"^64x64\s+59\s", table2, re.M)
        assert "chips below 64x64: unsat (" in table2

    def test_solve_unsat(self, tmp_path, capsys):
        path = _write_instance(tmp_path, UNSAT_INSTANCE)
        assert main(["solve", path]) == EXIT_UNSAT
        assert "status: unsat" in capsys.readouterr().out


class TestTelemetryFlags:
    """--trace / --metrics are available on every subcommand."""

    def test_every_subcommand_has_the_flags(self):
        parser = build_parser()
        cases = {
            "demo": [], "report": [],
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
