"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kcenter_defaults(self):
        args = build_parser().parse_args(["kcenter"])
        assert args.workload == "gaussian" and args.k == 10
        assert args.machines == 8 and args.partition == "random"

    def test_mis_requires_tau(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mis"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kcenter", "--workload", "bogus"])

    def test_constants_choices(self):
        args = build_parser().parse_args(["kcenter", "--constants", "paper"])
        assert args.constants == "paper"

    def test_backend_default_and_choices(self, capsys):
        args = build_parser().parse_args(["kcenter"])
        assert args.backend == "serial"
        args = build_parser().parse_args(["diversity", "--backend", "process"])
        assert args.backend == "process"
        for name in ("gpu", "thread"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["kcenter", "--backend", name])
            choices = capsys.readouterr().err.split("choose from", 1)[1]
            assert [c.strip(" ')\n") for c in choices.split(",")] == [
                "serial", "process", "remote"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8000
        assert args.workers == 2 and args.backend == "serial"
        assert args.queue_limit == 64 and args.job_timeout is None

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--backend", "process",
             "--queue-limit", "8", "--job-timeout", "30"]
        )
        assert args.port == 0 and args.workers == 4
        assert args.backend == "process"
        assert args.queue_limit == 8 and args.job_timeout == 30.0

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestCommands:
    def test_workloads_lists_names(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gaussian" in out and "clustered" in out

    def test_kcenter_runs(self, capsys):
        rc = main(
            [
                "kcenter",
                "--workload",
                "uniform",
                "--n",
                "120",
                "--k",
                "4",
                "--machines",
                "3",
                "--epsilon",
                "0.3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "radius" in out and "MPC statistics" in out

    def test_diversity_runs(self, capsys):
        rc = main(
            [
                "diversity",
                "--workload",
                "uniform",
                "--n",
                "100",
                "--k",
                "4",
                "--machines",
                "3",
                "--epsilon",
                "0.3",
            ]
        )
        assert rc == 0
        assert "diversity" in capsys.readouterr().out

    def test_supplier_runs(self, capsys):
        rc = main(
            [
                "supplier",
                "--customers",
                "80",
                "--suppliers",
                "30",
                "--k",
                "3",
                "--machines",
                "3",
                "--epsilon",
                "0.3",
            ]
        )
        assert rc == 0
        assert "opened" in capsys.readouterr().out

    def test_mis_runs(self, capsys):
        rc = main(
            [
                "mis",
                "--workload",
                "uniform",
                "--n",
                "100",
                "--tau",
                "1.0",
                "--k",
                "8",
                "--machines",
                "3",
            ]
        )
        assert rc == 0
        assert "terminated_via" in capsys.readouterr().out

    def test_dominating_runs(self, capsys):
        rc = main(
            [
                "dominating",
                "--workload",
                "uniform",
                "--n",
                "120",
                "--tau",
                "1.5",
                "--machines",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "packing LB" in out

    def test_compare_runs(self, capsys):
        rc = main(
            [
                "compare",
                "--workload",
                "uniform",
                "--n",
                "150",
                "--k",
                "4",
                "--machines",
                "3",
                "--epsilon",
                "0.4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Malkomes" in out and "Gonzalez" in out

    def test_json_out(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        rc = main(
            [
                "kcenter",
                "--workload",
                "uniform",
                "--n",
                "100",
                "--k",
                "3",
                "--machines",
                "2",
                "--epsilon",
                "0.5",
                "--json-out",
                str(out),
            ]
        )
        assert rc == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "kcenter"
        assert doc["rows"][0]["k"] == 3
        assert "rounds" in doc["meta"]["stats"]

    def test_trace_runs(self, capsys):
        rc = main(
            [
                "trace",
                "--algorithm",
                "mis",
                "--workload",
                "uniform",
                "--n",
                "120",
                "--tau",
                "1.0",
                "--k",
                "6",
                "--machines",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "message tag" in out and "heaviest" in out

    def test_block_partition_option(self, capsys):
        rc = main(
            [
                "kcenter",
                "--workload",
                "uniform",
                "--n",
                "80",
                "--k",
                "3",
                "--machines",
                "2",
                "--partition",
                "block",
                "--epsilon",
                "0.5",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_output_identical(self, capsys, backend):
        """The printed solution table must not depend on the backend."""
        argv = [
            "kcenter",
            "--workload", "uniform",
            "--n", "120",
            "--k", "4",
            "--machines", "3",
            "--epsilon", "0.3",
            "--backend", backend,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        baseline = main(argv[:-2])  # default serial
        assert baseline == 0
        assert capsys.readouterr().out == out


class TestMetricsOut:
    ARGV = [
        "kcenter",
        "--workload", "uniform",
        "--n", "120",
        "--k", "4",
        "--machines", "3",
        "--epsilon", "0.3",
        "--seed", "7",
    ]

    def test_metrics_out_writes_snapshot(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(self.ARGV + ["--metrics-out", str(path)]) == 0
        assert f"wrote metrics snapshot to {path}" in capsys.readouterr().out
        snap = json.loads(path.read_text())
        counters = snap["counters"]
        assert counters["repro_mpc_rounds_total"][""] > 0
        assert counters["repro_mpc_words_total"][""] > 0
        assert counters["repro_solver_runs_total"]['algorithm="kcenter"'] == 1
        assert 'algorithm="kcenter"' in snap["histograms"]["repro_solver_latency_seconds"]
        assert any(k.startswith('phase="kcenter/') for k in
                   counters["repro_phase_rounds_total"])

    def test_metrics_out_deterministic(self, capsys, tmp_path):
        """Acceptance: two seeded executions dump identical counters.

        Only the counters section is compared — histogram duration
        observations are wall-clock and legitimately differ.
        """
        import json

        snaps = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(self.ARGV + ["--metrics-out", str(path)]) == 0
            capsys.readouterr()
            snaps.append(json.loads(path.read_text()))
        assert snaps[0]["counters"] == snaps[1]["counters"]

    def test_metrics_out_scopes_to_one_invocation(self, capsys, tmp_path):
        """The registry resets at command start: counts don't accumulate
        across invocations within one process."""
        import json

        first, second = tmp_path / "1.json", tmp_path / "2.json"
        assert main(self.ARGV + ["--metrics-out", str(first)]) == 0
        assert main(self.ARGV + ["--metrics-out", str(second)]) == 0
        capsys.readouterr()
        a = json.loads(first.read_text())["counters"]
        b = json.loads(second.read_text())["counters"]
        assert a["repro_solver_runs_total"]['algorithm="kcenter"'] == 1
        assert b["repro_solver_runs_total"]['algorithm="kcenter"'] == 1

    def test_metrics_out_on_mis_command(self, capsys, tmp_path):
        """Commands that bypass the facade attach the observer themselves."""
        import json

        path = tmp_path / "mis.json"
        rc = main([
            "mis",
            "--workload", "uniform",
            "--n", "100",
            "--tau", "0.8",
            "--k", "10",
            "--machines", "3",
            "--metrics-out", str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        counters = json.loads(path.read_text())["counters"]
        assert counters["repro_mpc_rounds_total"][""] > 0


class TestSweepCommand:
    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.solvers == ["kcenter", "gonzalez", "malkomes"]
        assert args.ks == [4, 8] and args.epsilons == [0.1]
        assert args.url is None and args.workers == 2

    def test_sweep_rejects_bad_axis_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--partitions", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workload", "bogus"])

    def test_sweep_runs_and_writes_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        rc = main([
            "sweep",
            "--workload", "gaussian",
            "--n", "64",
            "--solvers", "gonzalez", "malkomes",
            "--ks", "3", "4",
            "--json-out", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells submitted" in out
        assert "recommendation:" in out
        assert "ratio (lower = better)" in out
        report = json.loads(path.read_text())
        assert sorted(report["ranking"]) == [0, 1, 2, 3]
        assert report["recommendation"]["cell"] == report["ranking"][0]

    def test_sweep_unknown_solver_fails_loudly(self, capsys):
        with pytest.raises(ValueError, match="unknown solver"):
            main([
                "sweep",
                "--workload", "gaussian",
                "--n", "32",
                "--solvers", "bogus",
                "--ks", "3",
            ])


class TestStreamCommand:
    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.algorithm == "kcenter" and args.appends == 3
        assert args.n == 240 and args.k == 6
        assert args.url is None and args.backend == "serial"

    def test_stream_rejects_bad_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--algorithm", "bogus"])

    def test_stream_runs_and_writes_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "stream.json"
        rc = main([
            "stream",
            "--n", "120",
            "--appends", "2",
            "--k", "4",
            "--json-out", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 versions (2 appends)" in out
        assert "warm" in out and "cold" in out
        report = json.loads(path.read_text())
        versions = report["versions"]
        assert [v["version"] for v in versions] == [0, 1, 2]
        assert versions[0]["warm"] is False and versions[0]["drift"] is None
        assert versions[2]["warm"] is True
        assert versions[2]["drift"]["appended"] == 40
        assert versions[2]["n"] == 120

    def test_stream_report_deterministic_across_runs(self, capsys, tmp_path):
        import json

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "stream", "--n", "120", "--appends", "2", "--k", "4",
                "--json-out", str(path),
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
