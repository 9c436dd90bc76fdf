"""The command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.records == 1_000
        assert args.availability == 0.9

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "decay"])
        assert args.seed == 7


class TestDetect:
    def test_runs_and_prints_summary(self, capsys):
        code = main(["--seed", "7", "detect", "--records", "300",
                     "--species", "80", "--outdated", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "records processed:" in out
        assert "300" in out
        assert "Quality assessment" in out
        assert "reputation" in out


class TestDecay:
    def test_prints_policy_table(self, capsys):
        code = main(["--seed", "7", "decay", "--start", "2000",
                     "--end", "2005", "--period", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "periodic" in out
        assert "2000" in out and "2005" in out


class TestArchive:
    def test_prints_capabilities(self, capsys):
        code = main(["--seed", "7", "archive", "--level", "1",
                     "--records", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "level 1" in out
        assert "cite_the_dataset" in out

    def test_writes_package(self, tmp_path, capsys):
        target = tmp_path / "package.json"
        code = main(["--seed", "7", "archive", "--level", "2",
                     "--records", "200", "--output", str(target)])
        assert code == 0
        with target.open() as handle:
            package = json.load(handle)
        assert "simplified_records" in package
        assert "records" not in package  # level 2 stops there


class TestPublish:
    def test_requires_a_target(self, capsys):
        code = main(["--seed", "7", "publish", "--records", "100"])
        assert code == 1

    def test_writes_triples_and_csv(self, tmp_path, capsys):
        triples = tmp_path / "out.nt"
        csv_path = tmp_path / "out.csv"
        code = main(["--seed", "7", "publish", "--records", "100",
                     "--triples", str(triples), "--csv", str(csv_path)])
        assert code == 0
        assert triples.read_text().strip().endswith(" .")
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 101  # header + 100 rows
        assert "species" in lines[0]


class TestCrossref:
    def test_prints_dividend(self, capsys):
        code = main(["--seed", "7", "crossref", "--publications", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "raw_links" in out
        assert "recovered_by_curation" in out


class TestVault:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["vault", "audit"])
        assert args.records == 300
        assert args.level == 3
        assert args.replicas == 3
        assert args.corrupt == 1
        assert not args.no_repair

    def test_vault_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vault"])

    def test_ingest_prints_summary(self, capsys, isolated_telemetry):
        code = main(["--seed", "7", "vault", "ingest", "--records", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 40 records at level 3" in out
        assert "x3 replicas" in out

    def test_audit_detects_and_repairs(self, capsys, isolated_telemetry):
        code = main(["--seed", "7", "vault", "audit", "--records", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "1 replicas restored" in out
        assert "re-audit" in out and "healthy" in out
        assert "fixity/sweep-0001" in out
        assert "fixity/repair-0001" in out

    def test_audit_no_repair_detects_only(self, capsys,
                                          isolated_telemetry):
        code = main(["--seed", "7", "vault", "audit", "--records", "40",
                     "--no-repair"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "repair" not in out.split("provenance")[0].replace(
            "no-repair", "")
        assert "fixity/repair" not in out

    def test_audit_level1_has_no_records_to_corrupt(self, capsys,
                                                    isolated_telemetry):
        # level 1 archives the package alone; the drill corrupts it
        code = main(["--seed", "7", "vault", "audit", "--records", "40",
                     "--level", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 0 records at level 1" in out
        assert "1 corrupt" in out

    def test_migrate_reencodes_at_risk_payloads(self, capsys,
                                                isolated_telemetry):
        code = main(["--seed", "7", "vault", "migrate",
                     "--records", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "at-risk formats (horizon 2014)" in out
        assert "migration/run-0001" in out
        assert "-> WAV" in out

    def test_status_prints_json_and_telemetry(self, capsys,
                                              isolated_telemetry):
        code = main(["--seed", "7", "vault", "status", "--records", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"provenance_runs"' in out
        assert "preservation vault" in out
        assert "Telemetry report" in out

    def test_stats_vault_flag_adds_vault_panel(self, capsys,
                                               isolated_telemetry):
        code = main(["--seed", "7", "stats", "--records", "200",
                     "--species", "60", "--outdated", "5", "--vault"])
        assert code == 0
        out = capsys.readouterr().out
        assert "preservation vault" in out
        assert re.search(r"corruptions found +1\n", out)
        assert re.search(r"corruptions repaired +1\n", out)


class TestStream:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream", "ingest"])
        assert args.records == 600
        assert args.species == 120
        assert args.shard_size == 64
        assert args.arrivals == 64
        assert args.policy == "block"

    def test_stream_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])

    def test_ingest_prints_streaming_panel(self, capsys,
                                           isolated_telemetry):
        code = main(["--seed", "7", "stream", "ingest", "--records",
                     "120", "--species", "30", "--arrivals", "16",
                     "--shard-size", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold sweep: 120 records" in out
        assert "streamed 16 arrival(s)" in out
        assert "incremental sweep:" in out
        assert "streaming" in out  # telemetry panel rendered

    def test_status_reports_dirty_economics(self, capsys,
                                            isolated_telemetry):
        code = main(["--seed", "7", "stream", "status", "--records",
                     "120", "--species", "30", "--churn", "4",
                     "--shard-size", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "churned 4 record(s)" in out
        assert "curator:" in out

    def test_recheck_reports_due_subjects(self, capsys,
                                          isolated_telemetry):
        code = main(["--seed", "7", "stream", "recheck", "--records",
                     "120", "--species", "30", "--shard-size", "32",
                     "--to-year", "2015"])
        assert code == 0
        out = capsys.readouterr().out
        assert "catalogue 2013 -> 2015" in out
        assert "subject(s) due" in out

    def test_stats_stream_flag(self, capsys, isolated_telemetry):
        code = main(["--seed", "7", "stats", "--stream"])
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming_sweeps_total" in out


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["detect", "--records", "10", "--species", "50"],
        ["vault", "migrate", "--target", "ATRAC"],
        ["explain", "--eq", "species"],
    ], ids=["records-below-species", "at-risk-target", "eq-without-value"])
    def test_ends_in_one_error_line(self, argv, capsys, isolated_telemetry):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
