"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate", "Bert-S",
                                          "tileflow"])
        assert args.arch == "edge"
        assert not args.show_tree


class TestCommands:
    def test_evaluate_attention(self, capsys):
        assert main(["evaluate", "Bert-S", "flat_rgran"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_evaluate_conv_with_tree(self, capsys):
        assert main(["evaluate", "CC3", "fused_layer", "--arch", "cloud",
                     "--show-tree", "--show-notation"]) == 0
        out = capsys.readouterr().out
        assert "fused_layer" in out and "level" in out

    def test_compare(self, capsys):
        assert main(["compare", "ViT/16-B"]) == 0
        out = capsys.readouterr().out
        assert "tileflow" in out and "speedup" in out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "GPT-7", "tileflow"])

    def test_search_small(self, capsys):
        assert main(["search", "ViT/16-B", "--generations", "2",
                     "--population", "4", "--samples", "5"]) == 0
        assert "best ordering/binding" in capsys.readouterr().out

    def test_search_population_below_survivors(self, capsys):
        # The GA keeps min(4, population) survivors, so tiny populations
        # search instead of failing the survivor-bounds check.
        assert main(["search", "Bert-S", "--generations", "1",
                     "--population", "2", "--samples", "2"]) == 0
        assert "best ordering/binding" in capsys.readouterr().out

    def test_search_ledger_slash_workload(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        root = str(tmp_path / "runs")
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "2",
                     "--ledger", root, "--quiet"]) == 0
        (run_id,) = RunLedger(root).run_ids()
        assert run_id.endswith("-ViT_16-B")
        assert RunLedger(root).load(run_id)["workload"]["name"] == "ViT/16-B"

    def test_experiment_tab6(self, capsys):
        assert main(["experiment", "tab6"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_validate_small(self, capsys):
        assert main(["validate", "--mappings", "40"]) == 0
        assert "Figure 8" in capsys.readouterr().out


class TestJsonOutput:
    def test_evaluate_json(self, capsys):
        import json
        assert main(["evaluate", "Bert-S", "tileflow", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arch"] == "Edge"
        assert payload["latency_cycles"] > 0
        assert "traffic" in payload and "violations" in payload

    def test_evaluate_json_is_clean_despite_show_tree(self, capsys):
        import json
        # --show-tree headers must not interleave with the JSON payload.
        assert main(["evaluate", "Bert-S", "tileflow", "--json",
                     "--show-tree", "--show-notation"]) == 0
        json.loads(capsys.readouterr().out)

    def test_search_json(self, capsys):
        import json
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "best_factors" in payload and "trace" in payload
        assert payload["result"]["latency_cycles"] > 0
        assert payload["normalized_trace"][-1] in (0.0, 1.0)

    def test_compare_json(self, capsys):
        import json
        assert main(["compare", "ViT/16-B", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["dataflow"] for r in payload["dataflows"]]
        assert all("latency_cycles" in r for r in payload["dataflows"])


class TestQuiet:
    def test_quiet_suppresses_output(self, capsys):
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_keeps_exit_code(self):
        # infeasible mapping still signals through the return code
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet"]) in (0, 1)


class TestCacheCommand:
    def test_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["search", "Bert-S", "--cache-dir", "/tmp/x",
             "--cache-bound", "128", "--no-cache-persist"])
        assert args.cache_dir == "/tmp/x"
        assert args.cache_bound == 128
        assert args.no_cache_persist
        # serve takes the same flags; cache requires --cache-dir.
        args = build_parser().parse_args(["serve", "--cache-dir", "/tmp/x"])
        assert args.cache_dir == "/tmp/x"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_search_writes_shards_then_stats_and_purge(self, tmp_path,
                                                       capsys):
        import json
        cache_dir = str(tmp_path / "cache")
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--cache-dir", cache_dir, "--quiet"]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "groupflows" in out and "total:" in out
        assert "1 namespace(s)" in out

        # Purge by workload/arch resolves the namespace for you.
        assert main(["cache", "purge", "--cache-dir", cache_dir,
                     "--workload", "ViT/16-B", "--arch", "edge"]) == 0
        assert "removed 1 shard(s)" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] == 0
        assert payload["namespaces"] == []

    def test_cache_clear_and_purge_selector_required(self, tmp_path,
                                                     capsys):
        import json
        from repro.engine.cache import DiskArtifactStore
        cache_dir = str(tmp_path / "cache")
        DiskArtifactStore(cache_dir).flush("ns|x", "cov", {"k": 1})

        with pytest.raises(SystemExit, match="--namespace"):
            main(["cache", "purge", "--cache-dir", cache_dir])

        assert main(["cache", "purge", "--cache-dir", cache_dir,
                     "--namespace", "ns|", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == ["ns|x"]

        DiskArtifactStore(cache_dir).flush("ns|y", "cov", {"k": 1})
        assert main(["cache", "clear", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 1


class TestObservabilityFlags:
    def test_profile_prints_breakdown_to_stderr(self, capsys):
        assert main(["evaluate", "Bert-S", "tileflow", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "latency" in captured.out  # normal output untouched
        assert "spans by self-time" in captured.err
        assert "model.pass.datamovement" in captured.err
        assert "model.evaluations" in captured.err

    def test_profile_does_not_pollute_json(self, capsys):
        import json
        assert main(["evaluate", "Bert-S", "tileflow", "--json",
                     "--profile"]) == 0
        json.loads(capsys.readouterr().out)

    def test_search_profile_has_search_counters(self, capsys):
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "mapper.evaluations" in err
        assert "mcts.samples" in err
        assert "ga.generation" in err

    def test_trace_then_stats_reproduces_summary(self, tmp_path, capsys):
        trace = str(tmp_path / "search.jsonl")
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--profile", "--trace", trace]) == 0
        live = capsys.readouterr().err.strip()
        assert main(["stats", trace]) == 0
        replayed = capsys.readouterr().out.strip()
        assert replayed == live

    def test_stats_json(self, tmp_path, capsys):
        import json
        trace = str(tmp_path / "eval.jsonl")
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {s["name"] for s in payload["spans"]}
        assert "model.evaluate" in names
        assert payload["metrics"]["model.evaluations"]["value"] == 1.0

    def test_tracing_disabled_after_command(self):
        from repro import obs
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet",
                     "--profile"]) == 0
        assert not obs.is_enabled()
