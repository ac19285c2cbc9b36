"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.net.addr import int_to_addr
from repro.topology.hitlist import Hitlist


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.preset == "small"
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--experiment", "fig9"])

    def test_probe_requires_dst(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe"])

    def test_nonpositive_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "--preset", "tiny", "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestCommands:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("tiny", "small", "study-2016"):
            assert name in out

    def test_study_single_experiment(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = main(
            [
                "study",
                "--preset",
                "tiny",
                "--experiment",
                "table1",
                "--output",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RR-Responsive" in out
        assert report.read_text("utf-8").strip()

    def test_probe_rr(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "rr",
            ]
        )
        assert code == 0
        assert "RRPing" in capsys.readouterr().out

    def test_probe_traceroute(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[3]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "trace",
            ]
        )
        assert code == 0
        assert "Traceroute" in capsys.readouterr().out

    def test_probe_named_vp(self, capsys, tiny_scenario):
        vp = tiny_scenario.vps[0]
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--vp",
                vp.name,
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "ping",
            ]
        )
        assert code == 0
        assert vp.name in capsys.readouterr().out

    def test_export_roundtrips(self, tmp_path, tiny_scenario):
        code = main(["export", "--preset", "tiny", "--dir", str(tmp_path)])
        assert code == 0
        rib = (tmp_path / "rib.txt").read_text("utf-8")
        assert len(rib.strip().splitlines()) == len(tiny_scenario.table)
        hitlist = Hitlist.from_lines(
            (tmp_path / "hitlist.txt").read_text("utf-8").splitlines()
        )
        assert hitlist.addresses() == tiny_scenario.hitlist.addresses()

    def test_experiment_registry_covers_paper(self):
        assert {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "s33", "s35"
        } <= set(EXPERIMENTS)

    def test_probe_trace_renders_hop_walk(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "rr",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hop trace" in out
        assert "send" in out
        assert "verdict:" in out

    def test_stats_table_after_study(self, capsys):
        code = main(["stats", "--preset", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dataplane" in out
        assert "sent" in out and "delivered" in out
        assert "dropped[" in out
        assert "probes (by type)" in out

    def test_stats_prom_and_jsonl_formats(self, capsys, tmp_path):
        prom_file = tmp_path / "metrics.prom"
        code = main(
            [
                "stats", "--preset", "tiny",
                "--format", "prom", "--output", str(prom_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE net_sent_total counter" in out
        assert prom_file.read_text("utf-8").startswith("#")
        code = main(["stats", "--preset", "tiny", "--format", "jsonl"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"name": "net_sent_total"' in out
