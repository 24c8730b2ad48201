import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causal_layering import cli, oracle, scm
from causal_layering.cli import main
from causal_layering.discovery import LICENSES
from causal_layering.graph import Dag
from causal_layering.presets import affine_chain3
from causal_layering.scm import (
    PROFILES,
    GeneratorConfig,
    Pmf,
    Scm,
    StructuralTable,
    generate_scm,
    parse_scm,
    scm_to_text,
)

from bruteforce import scm_to_dict


@pytest.fixture()
def affine_file(tmp_path, affine_chain):
    path = tmp_path / "affine.json"
    path.write_text(scm_to_text(affine_chain))
    return path


@pytest.fixture()
def xor_file(tmp_path, xor_chain):
    path = tmp_path / "xor.json"
    path.write_text(scm_to_text(xor_chain))
    return path


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["discover", "--wat"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_each_call_parses_its_own_namespace(self, affine_file, tmp_path, monkeypatch):
        # the parser is built once per process and reused by every main() call
        seen = []
        for name in ("_cmd_gen", "_cmd_discover", "_cmd_check"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        scm_path = str(affine_file)
        runs = [
            ["check", "--scm", scm_path, "--seed", "7", "--machine"],
            ["gen", "--nodes", "4", "--seed", "5", "--out", str(tmp_path / "a.json")],
            ["discover", "--scm", scm_path, "--algo", "sir", "--mode", "known"],
            ["check", "--scm", scm_path],
            ["gen", "--nodes", "3", "--out", str(tmp_path / "b.json")],
        ]
        for argv in runs:
            assert main(argv) == 0
        assert cli._build_parser() is cli._build_parser()
        check1, gen1, disc, check2, gen2 = seen
        assert (check1.seed, check1.machine) == (7, True)
        assert (check2.machine, check2.seed) == (False, 0)
        assert (gen1.nodes, gen1.seed, gen1.profile) == (4, 5, "base")
        assert (gen2.nodes, gen2.seed, gen2.report) == (3, 0, None)
        assert (disc.algo, disc.one_at_a_time) == ("sir", False)
        assert not hasattr(disc, "seed") and not hasattr(gen2, "scm")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["discover", "--scm", str(tmp_path / "nope.json"),
                     "--algo", "sour", "--mode", "known"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["discover", "--scm", str(bad), "--algo", "sour", "--mode", "known"])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestGen:
    def test_writes_model_and_report(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["gen", "--nodes", "4", "--profile", "base",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        report = tmp_path / "m.json.report.txt"
        assert out.exists() and report.exists()
        body = report.read_text()
        assert "profile: base" in body
        assert "injective_noise: holds" in body
        assert "faithfulness: holds" in body

    @pytest.mark.parametrize("flags, reason, tally", [
        (["1", "2", "--seed", "12", "--retries", "2"],
         "nonconstant_noise fails; first witness ('A',)",
         "1 parent_dependence, 1 nonconstant_noise"),
        # this candidate is unfaithful too: nonconstant_noise is audited first
        (["1", "2", "--seed", "3", "--retries", "1"],
         "nonconstant_noise fails; first witness ('B',)", "1 nonconstant_noise"),
        (["1", "2", "--seed", "4", "--retries", "3"],
         "faithfulness fails; first witness (('B',), ('D',), ('C',), 0.0)",
         "1 parent_dependence, 1 nonconstant_noise, 1 faithfulness"),
    ])
    def test_degenerate_noise_names_the_last_failure(self, tmp_path, capsys, flags, reason,
                                                     tally):
        # the generator audits in its own order, but names the failure that
        # registry order names; every failed attempt is tallied by kind
        code = main(["gen", "--nodes", "4", "--out", str(tmp_path / "m.json"),
                     "--noise-support", *flags])
        assert code == 1
        attempts = flags[-1]
        assert capsys.readouterr().err == (
            f"error: profile='base' entropy='known' nodes=4 unsatisfied after {attempts} "
            f"attempts ({tally}; last failure: {reason})\n"
        )

    def test_constant_noise_support_is_refused(self, tmp_path, capsys):
        # every profile guarantees nonconstant_noise, so no attempt could succeed
        out = str(tmp_path / "m.json")
        assert main(["gen", "--nodes", "3", "--noise-support", "1", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: noise_support_sizes must allow 2 or more values: "
            "one noise value is constant noise, which every profile refuses\n"
        )
        assert not Path(out).exists()

    def test_noise_support_past_the_weight_range_is_refused(self, tmp_path, capsys):
        # noise weights are distinct draws from 1..63, so 64 values cannot all get one
        out = str(tmp_path / "m.json")
        assert main(["gen", "--nodes", "3", "--noise-support", "64", "64", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: noise_support_sizes must not exceed 63, the number of distinct noise weights\n"
        )
        assert main(["gen", "--nodes", "3", "--noise-support", "63", "63", "--out", out]) == 0

    def test_byte_identical_for_same_flags(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["gen", "--nodes", "5", "--profile", "plus_one",
                 "--entropy", "weak", "--seed", "11"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_machine_output(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen", "--nodes", "3", "--seed", "0",
                     "--out", str(out), "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"scm={out}"
        assert lines[1].startswith("report=")

    def test_custom_report_path(self, tmp_path):
        out, rep = tmp_path / "m.json", tmp_path / "r.txt"
        assert main(["gen", "--nodes", "3", "--seed", "0",
                     "--out", str(out), "--report", str(rep)]) == 0
        assert rep.exists()

    @pytest.mark.parametrize("report", ["m.json", "./m.json", "sub/../m.json"])
    def test_report_path_must_not_be_the_model(self, tmp_path, monkeypatch, capsys, report):
        # the sidecar would overwrite the model, and check could not read it back
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["gen", "--nodes", "3", "--out", "m.json", "--report", report]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --report names the model file m.json\n"
        assert not (tmp_path / "m.json").exists()

    def test_generated_file_loads_back(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen", "--nodes", "4", "--profile", "sir_faithful",
                     "--seed", "1", "--out", str(out)]) == 0
        assert main(["check", "--scm", str(out)]) == 0
        assert "overall: PASS" in capsys.readouterr().out


class TestDiscover:
    def test_licensed_run_prints_report(self, affine_file, capsys):
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "known"])
        assert code == 0
        out = capsys.readouterr().out
        assert "layer 1: A\nlayer 2: B\nlayer 3: C" in out
        assert "oracle calls: 6" in out
        assert "no correctness guarantee" not in out

    def test_machine_output(self, affine_file, capsys):
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sir", "--mode", "monotone", "--machine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "algo=sir" in out
        assert "layering=A;B;C" in out
        assert "oracle_calls=6" in out
        assert "guarantee=validated" in out

    def test_out_file(self, affine_file, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "monotone", "--out", str(report)])
        assert code == 0
        assert "layer 1: A" in report.read_text()
        assert capsys.readouterr().out == ""

    def test_refuses_unlicensed_sink_peeling(self, xor_file, capsys):
        code = main(["discover", "--scm", str(xor_file),
                     "--algo", "sir", "--mode", "known"])
        assert code == 2
        err = capsys.readouterr().err
        assert "refusing to run" in err
        assert "directed_faithfulness" in err
        assert "--unsafe" in err

    def test_refuses_unlicensed_source_peeling(self, xor_file, capsys):
        code = main(["discover", "--scm", str(xor_file),
                     "--algo", "sour", "--mode", "known"])
        assert code == 2
        assert "injective_noise_plus_one" in capsys.readouterr().err

    def test_unsafe_overrides_and_labels(self, xor_file, capsys):
        code = main(["discover", "--scm", str(xor_file),
                     "--algo", "sir", "--mode", "known", "--unsafe"])
        assert code == 0
        assert "no correctness guarantee" in capsys.readouterr().out

    def test_unsafe_machine_guarantee_none(self, xor_file, capsys):
        code = main(["discover", "--scm", str(xor_file),
                     "--algo", "sir", "--mode", "known", "--unsafe", "--machine"])
        assert code == 0
        assert "guarantee=none" in capsys.readouterr().out

    def test_xor_sink_peeling_licensed_by_strict_order(self, xor_file, capsys):
        # strictly increasing noise entropies license monotone sink peeling
        # even though directed faithfulness fails
        code = main(["discover", "--scm", str(xor_file),
                     "--algo", "sir", "--mode", "monotone", "--machine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "layering=A;B;C" in out
        assert "guarantee=validated" in out

    def test_one_at_a_time(self, affine_file, capsys):
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "known", "--one-at-a-time"])
        assert code == 0



class TestBudget:
    def test_env_budget_too_small(self, affine_file, capsys, monkeypatch):
        monkeypatch.setenv("CAUSAL_LAYERING_BUDGET", "4")
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "known"])
        assert code == 1
        assert "exceeds enumeration budget 4" in capsys.readouterr().err

    def test_flag_overrides_env(self, affine_file, monkeypatch):
        monkeypatch.setenv("CAUSAL_LAYERING_BUDGET", "4")
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "known", "--budget", "100"])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["discover", "--algo", "sir", "--mode", "known"],
        ["check"],
    ])
    def test_flag_bounds_every_enumeration(self, affine_file, argv, monkeypatch):
        # the license gate and the check suites must enumerate under --budget too
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_BUDGET", 4)
        assert main([*argv, "--scm", str(affine_file), "--budget", "100"]) == 0

    @pytest.mark.parametrize("argv", [
        ["discover", "--algo", "sour", "--mode", "known"],
        ["check"],
    ])
    def test_budget_caps_the_product_over_components(self, tmp_path, argv, capsys):
        # three isolated nodes are three blocks of 3 rows each, but the budget
        # still caps the product of all noise supports, 27
        labels = ("A", "B", "C")
        m = Scm(
            Dag.of(labels),
            {v: Pmf.of((0, 1, 2), ("1/3",) * 3) for v in range(3)},
            {v: StructuralTable((), {(u,): u for u in range(3)}) for v in range(3)},
        )
        path = tmp_path / "isolated.json"
        path.write_text(scm_to_text(m))
        assert main([*argv, "--scm", str(path), "--budget", "26"]) == 1
        err = capsys.readouterr().err
        assert err == "error: noise-tuple product 27 exceeds enumeration budget 26\n"
        assert main([*argv, "--scm", str(path), "--budget", "27"]) == 0
        assert capsys.readouterr().err == ""

    def test_env_budget_bounds_gen(self, tmp_path, capsys, monkeypatch):
        # gen has no --budget flag; the variable bounds its enumerations all the same
        out = tmp_path / "g.json"
        monkeypatch.setenv("CAUSAL_LAYERING_BUDGET", "4")
        assert main(["gen", "--nodes", "3", "--out", str(out)]) == 1
        assert "exceeds enumeration budget 4" in capsys.readouterr().err
        assert not out.exists()
        # a budget the model fits leaves the model byte for byte as it was
        monkeypatch.setenv("CAUSAL_LAYERING_BUDGET", "1000")
        assert main(["gen", "--nodes", "3", "--out", str(out)]) == 0
        bounded = out.read_text()
        monkeypatch.delenv("CAUSAL_LAYERING_BUDGET")
        assert main(["gen", "--nodes", "3", "--out", str(out)]) == 0
        assert out.read_text() == bounded

    def test_bad_env_value(self, affine_file, capsys, monkeypatch):
        monkeypatch.setenv("CAUSAL_LAYERING_BUDGET", "lots")
        code = main(["discover", "--scm", str(affine_file),
                     "--algo", "sour", "--mode", "known"])
        assert code == 1
        assert "must be an integer" in capsys.readouterr().err


class TestCheck:
    def test_affine_chain_passes(self, affine_file, capsys):
        assert main(["check", "--scm", str(affine_file)]) == 0
        out = capsys.readouterr().out
        assert "== entropy bounds ==" in out
        assert "== noise independence ==" in out
        assert "overall: PASS" in out
        # every licensed combination ran
        assert "discovery sour/known" in out
        assert "discovery sir/monotone" in out

    def test_xor_chain_passes_with_skips(self, xor_file, capsys):
        assert main(["check", "--scm", str(xor_file)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        # only monotone sink peeling is licensed on the xor chain
        assert "discovery sir/monotone" in out
        assert "discovery sour/known" not in out
        assert "discovery sir/known" not in out

    def test_cases_flag_is_gone(self, affine_file, capsys):
        # each bound is decided on its extreme sets, so there is no sample size
        assert main(["check", "--scm", str(affine_file), "--cases", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --cases 7\n"

    def test_tol_flag_is_gone(self, affine_file, capsys):
        # every decision reads oracle.TOL; no run can widen or narrow it
        argv = ["discover", "--scm", str(affine_file), "--algo", "sour", "--mode", "known"]
        assert main([*argv, "--tol", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --tol 5\n"

    def test_one_node_model_passes(self, tmp_path, capsys):
        m = Scm(
            Dag.of("A"),
            {0: Pmf.of((0, 1), ("1/3", "2/3"))},
            {0: StructuralTable((), {(0,): 0, (1,): 1})},
        )
        path = tmp_path / "one.json"
        path.write_text(scm_to_text(m))
        assert main(["check", "--scm", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        independence = [ln for ln in lines if ln.startswith("noise_independence ")]
        assert independence == ["noise_independence v=A S={} mi=0.000e+00 PASS"]
        assert lines[-1] == "overall: PASS"

    def test_empty_model_passes(self, tmp_path, capsys):
        # with no nodes both suites are empty and nothing fails
        path = tmp_path / "empty.json"
        path.write_text('{"nodes": [], "edges": [], "noise": {}, "functions": {}}')
        assert main(["check", "--scm", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL" not in "\n".join(lines[:-1])
        assert lines[-1] == "overall: PASS"

    def test_node_named_like_a_noise_variable(self, tmp_path, capsys):
        # B is labelled N_A, the label of A's noise variable; the oracle keys
        # variables by id, so nothing collides
        m = Scm(
            Dag.of(["A", "N_A"], [("A", "N_A")]),
            {v: Pmf.of((0, 1), ("1/3", "2/3")) for v in (0, 1)},
            {0: StructuralTable((), {(0,): 0, (1,): 1}),
             1: StructuralTable((0,), {(a, u): a + 2 * u for a in (0, 1) for u in (0, 1)})},
        )
        path = tmp_path / "n_a.json"
        path.write_text(scm_to_text(m))
        assert main(["check", "--scm", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "overall: PASS"
        assert captured.err == ""

    def test_machine_output(self, affine_file, capsys):
        assert main(["check", "--scm", str(affine_file), "--machine"]) == 0
        assert "overall=pass" in capsys.readouterr().out

    def test_empirical_is_not_an_option(self, affine_file, capsys):
        # check decides every verdict on the exact oracle; there is no sampled-row audit
        assert main(["check", "--scm", str(affine_file), "--empirical", "500"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --empirical 500\n"

    def test_denominator_past_float_range(self, tmp_path, capsys):
        # B's noise has 400-digit literals, so the joint table's denominator
        # passes 2**1024 and its weights no longer convert to floats
        corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
        data = json.loads((corpus / "plus_one_weak_n6_s12.json").read_text())
        data["noise"]["B"]["probs"] = [f"{10**400 - 1}/{10**400}", f"1/{10**400}"]
        path = tmp_path / "tiny_noise.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--scm", str(path)]) in (0, 3)
        captured = capsys.readouterr()
        assert "== entropy bounds ==" in captured.out
        assert "== discovery ==" in captured.out
        assert re.search(r"^overall: (PASS|FAIL)$", captured.out, re.M)
        assert captured.err == ""

    def test_gap_within_tie_width_is_no_strict_order(self, tmp_path, capsys):
        # A -> B with B equal to its noise: H(N_B) - H(N_A) is about 2e-11 bits,
        # inside the width discovery groups as a tie, so sir/monotone would
        # return one layer; the strict order must fail and nothing is licensed
        big = 10**12
        m = Scm(
            Dag.of(["A", "B"], [("A", "B")]),
            {
                0: Pmf.of((0, 1), ("1/2", "1/2")),
                1: Pmf.of((0, 1, 2), [Fraction(w, 2 * big + 1) for w in (big, 1, big)]),
            },
            {
                0: StructuralTable((), {(0,): 0, (1,): 1}),
                1: StructuralTable((0,), {(a, u): u for a in (0, 1) for u in (0, 1, 2)}),
            },
        )
        path = tmp_path / "near_tie.json"
        path.write_text(scm_to_text(m))
        argv = ["--scm", str(path)]
        assert main(["discover", *argv, "--algo", "sir", "--mode", "monotone"]) == 2
        assert "strict_entropy_order: fails" in capsys.readouterr().err
        assert main(["check", *argv]) == 0
        assert "no licensed algorithm/mode combination" in capsys.readouterr().out


class RawJson(str):
    """A literal written into the model file as is, not as a JSON string."""


class TestMalformedModel:
    @pytest.mark.parametrize("path, value, where", [
        (("nodes", 0, "label"), None, "nodes[0]: missing key 'label'"),
        (("noise", "A", "probs"), None, "noise.A: missing key 'probs'"),
        (("nodes",), {"A": {"label": "A"}}, "nodes: expected a list"),
        (("noise", "A", "probs", 0), "1/0", "noise.A.probs: zero denominator"),
        (("edges", 0), ["A"],
         "edges[0]: expected an array of two labels, got an array of length 1"),
        (("noise", "A", "probs"), [float("nan")] * 2,
         "noise.A.probs: probabilities must be finite"),
        # integer fields take JSON integers only; each of these used to load
        # as a different model, and check passed on it
        (("functions", "C", "table", 0, "out"), 0.5,
         "functions.C.table[0].out: expected an integer, got 0.5"),
        (("noise", "A", "support"), "01",
         "noise.A.support: expected a list of integers, got '01'"),
        (("nodes", 1, "alphabet", 1), 1.0,
         "nodes[1].alphabet: expected an integer, got 1.0"),
        (("functions", "B", "table", 0, "parents"), [False],
         "functions.B.table[0].parents: expected an integer, got False"),
        (("functions", "B", "table", 0, "noise"), True,
         "functions.B.table[0].noise: expected an integer, got True"),
        (("functions", "A", "table", 1, "out"), "1",
         "functions.A.table[1].out: expected an integer, got '1'"),
        # decimals are read exactly, so they must sum to exactly 1
        (("noise", "A", "probs"), [0.1, 0.8],
         "noise.A.probs: probabilities sum to 9/10, not 1"),
        (("noise", "A", "probs"), "01",
         "noise.A.probs: expected a list of probabilities, got '01'"),
        # each would build an integer of 10**8 or 5000 digits
        (("noise", "A", "probs"), ["1e-100000000", "1"],
         "noise.A.probs: probability literal exceeds 1000 digits"),
        (("noise", "A", "probs"), ["1e+100000000", "1"],
         "noise.A.probs: probability literal exceeds 1000 digits"),
        (("noise", "A", "probs"), ["1/" + "9" * 5000, "1"],
         "noise.A.probs: probability literal exceeds 1000 digits"),
        # bare JSON integers past 1000 digits, in a probability and in an
        # integer field; Python's own int-string limit names no path
        (("noise", "A", "probs", 0), RawJson("9" * 5001),
         "noise.A.probs: probability literal exceeds 1000 digits"),
        (("functions", "C", "table", 0, "out"), RawJson("-" + "9" * 1001),
         "functions.C.table[0].out: integer literal exceeds 1000 digits"),
        # an entry that must be an object names its path and its type
        (("nodes", 0), [], "nodes[0]: expected an object, got an array"),
        (("nodes", 0), "A", "nodes[0]: expected an object, got a string"),
        (("noise",), [], "noise: expected an object, got an array"),
        (("noise", "A"), [], "noise.A: expected an object, got an array"),
        (("functions", "A"), [], "functions.A: expected an object, got an array"),
        (("functions", "A", "table", 0), [],
         "functions.A.table[0]: expected an object, got an array"),
        # JSON numbers are named as such, not by the parser's classes
        (("nodes",), 2.5, "nodes: expected a list, got a number"),
        (("nodes",), [1.5], "nodes[0]: expected an object, got a number"),
        (("noise", "A"), RawJson("9" * 1001), "noise.A: expected an object, got a number"),
        # a label is a JSON string: an array broke the edge lookup, and 1
        # missed its noise entry "1"
        (("nodes", 0, "label"), [1], "nodes[0].label: expected a string, got an array"),
        (("nodes", 0, "label"), 1, "nodes[0].label: expected a string, got a number"),
        # an edge is an array of two labels: "AB" and "BC" loaded as the chain A -> B -> C
        (("edges",), ["AB", "BC"], "edges[0]: expected an array of two labels, got a string"),
        (("edges",), [["A", "B", "C"]],
         "edges[0]: expected an array of two labels, got an array of length 3"),
        (("edges", 1, 0), 1, "edges[1][0]: expected a string, got a number"),
        # parent_order is an array of labels: "A" and {"A": 1} loaded as ["A"]
        (("functions", "B", "parent_order"), "A",
         "functions.B.parent_order: expected an array of labels, got a string"),
        (("functions", "B", "parent_order"), {"A": 1},
         "functions.B.parent_order: expected an array of labels, got an object"),
        (("functions", "B", "parent_order"), 2.5,
         "functions.B.parent_order: expected an array of labels, got a number"),
        (("functions", "B", "parent_order"), [["A"]],
         "functions.B.parent_order[0]: expected a string, got an array"),
        (("functions", "B", "parent_order"), [1],
         "functions.B.parent_order[0]: expected a string, got a number"),
        (("functions", "B", "parent_order"), ["Z"],
         "functions.B.parent_order[0]: unknown label 'Z'"),
        (("functions", "B", "table"), 3, "functions.B.table: expected an array, got a number"),
        (("functions", "B", "table"), {"a": 1},
         "functions.B.table: expected an array, got an object"),
        # a repeated label used to be reported as an edge error
        (("nodes", 1, "label"), "A", "nodes[1].label: duplicate label 'A'"),
    ])
    def test_named_error_without_traceback(self, tmp_path, affine_chain, path, value,
                                           where, capsys):
        data = scm_to_dict(affine_chain)
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        text = json.dumps(data)
        if isinstance(value, RawJson):
            text = text.replace(json.dumps(value), value)
        self.assert_named_error(tmp_path, text, where, capsys)

    def test_bare_oversized_decimal(self, tmp_path, affine_chain, capsys):
        text = scm_to_text(affine_chain).replace('"7/8"', "1e-100000000")
        where = "noise.A.probs: probability literal exceeds 1000 digits"
        self.assert_named_error(tmp_path, text, where, capsys)

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"nodes": ' + "[" * 5_000 + "]" * 5_000 + "}",
    ])
    def test_deeply_nested_file(self, tmp_path, text, capsys):
        # json.loads raises RecursionError past the interpreter's recursion limit
        self.assert_named_error(tmp_path, text, "SCM file nests too deeply", capsys)

    @staticmethod
    def assert_named_error(tmp_path, text, where, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)  # json.dumps writes NaN as a bare NaN literal
        start = time.perf_counter()
        assert main(["check", "--scm", str(bad)]) == 1
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
    | st.sampled_from(["", "A", "B", "x", "0", "1", "1/0", "1/2", "1/3", "2/3", "3/4"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["label", "probs", "A", "x"]), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_affine_chain(draw):
    """The affine chain's JSON with one to three random edits: a value
    replaced (an integer mostly by a nearby integer, so that many edits still
    load), a key or element deleted, or an element duplicated."""
    data = scm_to_dict(affine_chain3())
    for _ in range(draw(st.integers(1, 3))):
        target = data
        while True:
            keys = list(target) if isinstance(target, dict) else list(range(len(target)))
            key = draw(st.sampled_from(keys))
            child = target[key]
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 4)):
                target = child
                continue
            break
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace" and type(target[key]) is int and draw(st.booleans()):
            target[key] = draw(st.integers(-1, 3))
        elif action == "replace":
            target[key] = draw(JSON_VALUES)
        elif action == "delete" and len(target) > 1:
            del target[key]
        elif isinstance(target, list):
            target.insert(key, copy.deepcopy(target[key]))
        else:
            target[draw(st.sampled_from(keys))] = copy.deepcopy(target[key])
    return json.dumps(data)


class TestMutatedModel:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_affine_chain(), st.sampled_from(["sour", "sir"]),
           st.sampled_from(["known", "monotone"]))
    def test_every_exit_is_documented(self, text, algo, mode):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(text)
            for argv in (
                ["check", "--scm", str(path), "--budget", "4096"],
                ["discover", "--scm", str(path), "--algo", algo, "--mode", mode,
                 "--unsafe", "--budget", "4096"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2, 3)
                assert "Traceback" not in err.getvalue()


@st.composite
def decimal_noise_models(draw) -> Scm:
    """A generated model whose noise is redrawn over denominators 2**a * 5**b,
    so that every probability has a finite decimal form."""
    cfg = GeneratorConfig(nodes=draw(st.integers(1, 4)), profile=draw(st.sampled_from(PROFILES)))
    m = generate_scm(cfg, seed=draw(st.integers(0, 10_000)))
    noise = {}
    for v, pmf in m.noise.items():
        d = 2 ** draw(st.integers(0, 4)) * 5 ** draw(st.integers(0, 3))
        k = len(pmf.support)
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=k - 1, max_size=k - 1)))
        weights = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d])]
        noise[v] = Pmf(pmf.support, tuple(Fraction(w, d) for w in weights))
    return Scm(m.graph, noise, m.functions)


def with_decimal_probs(m: Scm) -> str:
    """The model's file with every probability written as a bare JSON decimal."""
    data = scm_to_dict(m)
    for spec in data["noise"].values():
        spec["probs"] = [
            "@{}@".format(Decimal(q.numerator) / Decimal(q.denominator))
            for q in map(Fraction, spec["probs"])
        ]
    return re.sub(r'"@([^@]*)@"', r"\1", json.dumps(data, indent=2))


class TestDecimalModels:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(decimal_noise_models())
    def test_decimals_and_fractions_give_the_same_outputs(self, m):
        decimal_text, fraction_text = with_decimal_probs(m), scm_to_text(m)
        assert not re.search(r'"probs": \[[^]]*"', decimal_text)  # no quoted probability
        for text in (decimal_text, fraction_text):
            assert parse_scm(text).noise == m.noise
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in (("decimal", decimal_text), ("fraction", fraction_text)):
                path = Path(tmp) / f"{name}.json"
                path.write_text(text)
                outputs = []
                for argv in [["check"]] + [
                    ["discover", "--algo", algo, "--mode", mode, "--unsafe"]
                    for algo in ("sour", "sir") for mode in ("known", "monotone")
                ]:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main([*argv, "--scm", str(path)])
                    outputs.append((code, out.getvalue()))
                runs.append(outputs)
        assert runs[0] == runs[1]


@pytest.fixture()
def validator_calls(monkeypatch):
    """(assumption, model) of every validator run, through any binding."""
    calls = []
    modules = [mod for key, mod in sys.modules.items() if key.startswith("causal_layering")]
    for fname in ("check_nonconstant_noise", "check_injective_noise",
                  "check_injective_noise_plus_one", "check_noise_entropy_order",
                  "check_faithfulness", "check_directed_faithfulness"):
        original = getattr(scm, fname)

        def counted(m, *args, _original=original, **kwargs):
            report = _original(m, *args, **kwargs)
            calls.append((report.assumption, m))
            return report

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestValidatorRuns:
    def test_check_runs_each_validator_at_most_once(self, affine_file, validator_calls):
        assert main(["check", "--scm", str(affine_file)]) == 0
        names = [name for name, _ in validator_calls]
        assert sorted(names) == sorted(set(names))
        assert "faithfulness" not in names

    @pytest.mark.parametrize("profile", ["base", "plus_one", "sir_faithful"])
    def test_gen_reuses_the_generator_reports(self, tmp_path, profile, validator_calls):
        out = tmp_path / "m.json"
        assert main(["gen", "--nodes", "5", "--profile", profile, "--entropy", "weak",
                     "--seed", "2", "--out", str(out)]) == 0
        accepted = validator_calls[-1][1]
        names = [name for name, m in validator_calls if m is accepted]
        assert sorted(names) == sorted(set(names))
        report = (tmp_path / "m.json.report.txt").read_text()
        assert all(f"{name}: " in report for name in names)

    @pytest.mark.parametrize("chain, algo, mode", [
        ("affine", "sour", "known"),
        ("affine", "sour", "monotone"),
        ("affine", "sir", "known"),
        ("affine", "sir", "monotone"),
        ("xor", "sour", "known"),
        ("xor", "sir", "known"),
        ("xor", "sir", "monotone"),
    ])
    def test_discover_runs_only_what_its_pair_needs(self, affine_file, xor_file, chain,
                                                     algo, mode, validator_calls):
        path = affine_file if chain == "affine" else xor_file
        main(["discover", "--scm", str(path), "--algo", algo, "--mode", mode])
        names = [name for name, _ in validator_calls]
        needed = [name for alternative in LICENSES[(algo, mode)] for name in alternative]
        assert sorted(names) == sorted(set(names))
        assert set(names) <= set(needed)
        if (algo, mode) == ("sir", "monotone"):
            # strict entropy order holds on both chains: the second
            # alternative is never evaluated
            assert "directed_faithfulness" not in names


@pytest.fixture()
def enumerations(monkeypatch):
    """include_noise of every joint_distribution call, through any binding."""
    calls = []
    original = oracle.joint_distribution

    def counted(m, include_noise=False, budget=None):
        calls.append(include_noise)
        return original(m, include_noise=include_noise, budget=budget)

    for mod in [mod for key, mod in sys.modules.items() if key.startswith("causal_layering")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


class TestOneEnumeration:
    @pytest.mark.parametrize("argv", [
        ["check"],
        ["discover", "--algo", "sir", "--mode", "known"],
        ["discover", "--algo", "sour", "--mode", "known"],
    ])
    def test_command_enumerates_once(self, affine_file, argv, enumerations, capsys):
        assert main([*argv, "--scm", str(affine_file)]) == 0
        # ``include_noise`` of each enumeration: noise columns only where a noise
        # query runs (noise independence, directed faithfulness); sour/known has none
        assert enumerations == ["sour" not in argv]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "causal_layering", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "discover" in proc.stdout
