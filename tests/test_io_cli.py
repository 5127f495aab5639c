import json
import math

import numpy as np
import pytest

from signalgames import (
    GameSpec,
    ParseError,
    Protocol,
    synchronized_receiver,
)
from signalgames import io
from signalgames.cli import main
from signalgames.counterexamples import build_mirror_pairs_instance


@pytest.fixture
def data_dir(tmp_path, space_b, split, labels_ab):
    io.save_input_space(tmp_path / "space.csv", space_b, [labels_ab])
    io.save_protocol(tmp_path / "protocol.csv", split,
                     io.default_message_space(2))
    return tmp_path


class TestInputSpaceFiles:
    def test_csv_round_trip(self, tmp_path, space_b, labels_ab):
        path = tmp_path / "space.csv"
        io.save_input_space(path, space_b, [labels_ab])
        loaded, labels = io.load_input_space(path)
        assert np.array_equal(loaded.points, space_b.points)
        assert np.array_equal(loaded.weights, space_b.weights)
        assert labels[0].labels == labels_ab.labels
        assert labels[0].name == "label"

    def test_json_round_trip(self, tmp_path, space_b, labels_ab):
        path = tmp_path / "space.json"
        io.save_input_space(path, space_b, [labels_ab])
        loaded, labels = io.load_input_space(path)
        assert np.allclose(loaded.points, space_b.points)
        assert labels[0].labels == labels_ab.labels

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,weight\n0,0.0,0.5\n1,oops,0.5\n")
        with pytest.raises(ParseError) as exc:
            io.load_input_space(path)
        assert exc.value.line == 3 and exc.value.column == 2

    def test_rejects_gap_in_ids(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,weight\n0,0.0,0.5\n2,1.0,0.5\n")
        with pytest.raises(ParseError, match="contiguous"):
            io.load_input_space(path)

    def test_missing_weight_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0\n0,0.0\n")
        with pytest.raises(ParseError, match="weight"):
            io.load_input_space(path)


class TestProtocolFiles:
    def test_csv_round_trip(self, tmp_path, split):
        ms = io.default_message_space(2)
        path = tmp_path / "protocol.csv"
        io.save_protocol(path, split, ms)
        loaded, ms2 = io.load_protocol(path)
        assert loaded == split
        assert [ms2.atom_string(i) for i in range(2)] == ["0", "1"]

    def test_json_round_trip(self, tmp_path, split):
        path = tmp_path / "protocol.json"
        io.save_protocol(path, split, io.default_message_space(2))
        loaded, _ = io.load_protocol(path)
        assert loaded == split

    def test_multisymbol_messages(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,message\n0,0371\n1,0371\n2,1111\n")
        protocol, ms = io.load_protocol(path)
        assert ms.vocab_size == 8 and ms.length == 4
        assert protocol.assignment.tolist() == [0, 0, 1]

    def test_vocab_override(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,message\n0,01\n1,10\n")
        _, ms = io.load_protocol(path, vocab_size=10)
        assert ms.vocab_size == 10

    def test_ragged_messages_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,message\n0,01\n1,012\n")
        with pytest.raises(ParseError, match="length"):
            io.load_protocol(path)

    def test_rejects_duplicate_id(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,message\n0,0\n1,1\n1,0\n")
        with pytest.raises(ParseError, match="duplicate id 1") as exc:
            io.load_protocol(path)
        assert exc.value.line == 4


class TestReceiverJson:
    def test_reconstruction_round_trip(self, space_b, split):
        recv = synchronized_receiver(split, space_b,
                                     GameSpec("reconstruction"))
        data = io.receiver_to_json(recv)
        back = io.receiver_from_json(data)
        assert np.allclose(back.points, recv.points)

    def test_global_round_trip(self, space_b, split):
        recv = synchronized_receiver(split, space_b, GameSpec("global"))
        back = io.receiver_from_json(io.receiver_to_json(recv))
        assert np.allclose(back.table, recv.table)

    def test_tabular_round_trip(self):
        inst = build_mirror_pairs_instance()
        back = io.receiver_from_json(io.receiver_to_json(inst.receiver))
        assert back.num_candidates == 2
        assert len(back.table) == len(inst.receiver.table)
        key = (0, (0, 1))
        assert np.allclose(back.table[key], inst.receiver.table[key])

    def test_classification_round_trip(self, space_b, anti, labels_ab):
        recv = synchronized_receiver(
            anti, space_b, GameSpec("classification", labels=labels_ab))
        back = io.receiver_from_json(io.receiver_to_json(recv))
        assert np.allclose(back.conditional, recv.conditional)

    def test_undefined_rows_survive(self, space_b):
        recv = synchronized_receiver(Protocol.constant(4, 2), space_b,
                                     GameSpec("reconstruction"))
        back = io.receiver_from_json(io.receiver_to_json(recv))
        assert back.defined.tolist() == [True, False]


class TestReportFormatting:
    def test_floats_pinned_to_12_digits(self):
        out = io.format_floats({"v": 1.0 / 3.0})
        assert out["v"] == 0.333333333333

    def test_non_finite_mapped_to_strings(self):
        out = io.format_floats({"a": math.inf, "b": math.nan})
        assert out == {"a": "inf", "b": "nan"}

    def test_sorted_keys(self):
        s = io.dumps_report({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')


class TestCli:
    def test_metrics_reports_and_error_entries(self, data_dir, capsys):
        code = main(["metrics", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--d", "2", "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["message_variance"] == 0.25
        assert report["disc_accuracy"] == 0.75
        assert report["seed"] == 5 and report["schema"] == 1
        assert "error" in report["posdis"]  # single attribute

    def test_topsim_undefined_for_constant(self, tmp_path, space_b, capsys):
        io.save_input_space(tmp_path / "s.csv", space_b)
        io.save_protocol(tmp_path / "p.csv", Protocol.constant(4, 2),
                         io.default_message_space(2))
        code = main(["metrics", "--input", str(tmp_path / "s.csv"),
                     "--protocol", str(tmp_path / "p.csv"), "--d", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["topsim"] == "undefined"

    def test_sparse_table_query_exits_1(self, data_dir, capsys):
        (data_dir / "table.json").write_text(json.dumps(
            {"kind": "discrimination", "d": 2, "num_messages": 2,
             "rows": [{"message": 0, "candidates": [0, 1],
                       "probs": [0.5, 0.5]}]}))
        code = main(["verify", "--def", "6", "--game", "discrimination",
                     "--d", "2", "--input", str(data_dir / "space.csv"),
                     "--receiver", str(data_dir / "table.json"),
                     "--out", str(data_dir / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: receiver undefined on query (0, (0, 0))\n"

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,x0,weight\n0,zz,1.0\n")
        code = main(["metrics", "--input", str(bad), "--protocol", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("case", [
        "empty_csv", "receiver_without_rows", "missing_labels",
        "def3_without_protocol", "optimize_k0", "short_labels",
        "thm2_k_mismatch", "thm2_nonuniform", "receiver_all_null",
        "def6_table_for_reconstruction", "def6_points_for_discrimination",
        "receiver_list", "labels_not_object",
        "labels_short", "messages_not_list", "table_message_out_of_range",
        "table_candidate_out_of_range", "trials_0", "symbol_groups_not_int",
        "kmeans_init_shape", "optimize_d1", "lemma2_d1",
        "supervised_d_above_labels", "table_without_rows",
        "receiver_beyond_message_space", "lemma_instances_0",
        "corollary_n0", "kmeans_max_iters_0", "kmeans_k_above_points",
        "antipodal_k_mismatch"])
    def test_malformed_input_exits_2(self, case, tmp_path, space_b, capsys):
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "protocol.csv").write_text(
            "id,message\n0,0\n1,0\n2,1\n3,1\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "norows.json").write_text(
            '{"kind": "discrimination", "d": 2, "num_messages": 2}')
        (tmp_path / "short.csv").write_text("id,color\n0,a\n1,b\n")
        (tmp_path / "nonuniform.csv").write_text(
            "id,x0,weight\n0,0,0.1\n1,1,0.4\n2,2,0.4\n3,3,0.1\n")
        (tmp_path / "allnull.json").write_text(
            '{"kind": "reconstruction", "outputs": [null, null]}')
        table = {"kind": "discrimination", "d": 2, "num_messages": 2,
                 "rows": [{"message": 0, "candidates": [0, 1],
                           "probs": [0.5, 0.5]}]}
        (tmp_path / "table.json").write_text(json.dumps(table))
        table["rows"][0]["message"] = 2
        (tmp_path / "bad_message.json").write_text(json.dumps(table))
        table["rows"][0].update(message=0, candidates=[0, 4])
        (tmp_path / "bad_candidate.json").write_text(json.dumps(table))
        (tmp_path / "points.json").write_text(
            '{"kind": "reconstruction", "outputs": [[0.5], [2.5]]}')
        (tmp_path / "three_points.json").write_text(
            '{"kind": "reconstruction", "outputs": [[0.5], [1.5], [2.5]]}')
        (tmp_path / "list.json").write_text("[[0.0], [1.0]]")
        (tmp_path / "labels_list.json").write_text(
            '{"points": [[0.0], [1.0]], "labels": ["a", "b"]}')
        (tmp_path / "labels_short.json").write_text(
            '{"points": [[0.0], [1.0]], "labels": {"color": ["a"]}}')
        (tmp_path / "messages5.json").write_text('{"messages": 5}')
        table["rows"] = []
        (tmp_path / "no_rows.json").write_text(json.dumps(table))
        (tmp_path / "labeled.csv").write_text(
            "id,x0,weight,c\n0,0,0.25,a\n1,1,0.25,a\n2,2,0.25,b\n"
            "3,3,0.25,b\n")
        space, protocol = str(tmp_path / "space.csv"), \
            str(tmp_path / "protocol.csv")
        argv = {
            "empty_csv": ["analyze", "--input", str(tmp_path / "empty.csv"),
                          "--protocol", protocol],
            "receiver_without_rows": ["verify", "--def", "5", "--input",
                                      space, "--receiver",
                                      str(tmp_path / "norows.json")],
            "missing_labels": ["analyze", "--input", space, "--protocol",
                               protocol, "--labels",
                               str(tmp_path / "missing.csv")],
            "def3_without_protocol": ["verify", "--def", "3", "--input",
                                      space],
            "optimize_k0": ["optimize", "--k", "0", "--input", space],
            "short_labels": ["analyze", "--input", space, "--protocol",
                             protocol, "--labels",
                             str(tmp_path / "short.csv")],
            "thm2_k_mismatch": ["counterexample", "--which", "thm2", "--k",
                                "3"],
            "thm2_nonuniform": ["counterexample", "--which", "thm2",
                                "--input", str(tmp_path / "nonuniform.csv")],
            "receiver_all_null": ["verify", "--def", "6", "--input", space,
                                  "--receiver",
                                  str(tmp_path / "allnull.json")],
            "def6_table_for_reconstruction": [
                "verify", "--def", "6", "--input", space, "--receiver",
                str(tmp_path / "table.json")],
            "def6_points_for_discrimination": [
                "verify", "--def", "6", "--game", "discrimination", "--input",
                space, "--receiver", str(tmp_path / "points.json")],
            "receiver_list": ["verify", "--def", "5", "--input", space,
                              "--receiver", str(tmp_path / "list.json")],
            "labels_not_object": ["optimize", "--k", "2", "--input",
                                  str(tmp_path / "labels_list.json")],
            "labels_short": ["optimize", "--k", "2", "--game",
                             "classification", "--input",
                             str(tmp_path / "labels_short.json")],
            "messages_not_list": ["verify", "--def", "3", "--input", space,
                                  "--protocol",
                                  str(tmp_path / "messages5.json")],
            "table_message_out_of_range": [
                "verify", "--def", "5", "--input", space, "--receiver",
                str(tmp_path / "bad_message.json")],
            "table_candidate_out_of_range": [
                "verify", "--def", "5", "--input", space, "--receiver",
                str(tmp_path / "bad_candidate.json")],
            "trials_0": ["analyze", "--input", space, "--protocol", protocol,
                         "--trials", "0"],
            "symbol_groups_not_int": ["analyze", "--input", space,
                                      "--protocol", protocol,
                                      "--symbol-groups", "0;x"],
            "kmeans_init_shape": ["optimize", "--method", "kmeans", "--init",
                                  "0.1,0.2,0.3", "--k", "2", "--input",
                                  space],
            "optimize_d1": ["optimize", "--game", "discrimination", "--d",
                            "1", "--k", "2", "--input", space],
            "lemma2_d1": ["verify", "--lemma", "2", "--d", "1"],
            "supervised_d_above_labels": [
                "optimize", "--game", "supervised", "--d", "3", "--k", "2",
                "--input", str(tmp_path / "labeled.csv")],
            "table_without_rows": ["verify", "--def", "5", "--input", space,
                                   "--receiver",
                                   str(tmp_path / "no_rows.json")],
            "receiver_beyond_message_space": [
                "verify", "--def", "5", "--input", space, "--protocol",
                protocol, "--receiver", str(tmp_path / "three_points.json")],
            "lemma_instances_0": ["verify", "--lemma", "1", "--instances",
                                  "0"],
            "corollary_n0": ["verify", "--corollary", "1", "--n", "0"],
            "kmeans_max_iters_0": ["optimize", "--method", "kmeans",
                                   "--max-iters", "0", "--k", "2", "--input",
                                   space],
            "kmeans_k_above_points": ["optimize", "--method", "kmeans",
                                      "--k", "5", "--input", space],
            "antipodal_k_mismatch": ["optimize", "--method", "balanced",
                                     "--flavor", "adversarial-antipodal",
                                     "--k", "3", "--input", space],
        }[case]
        try:
            code = main(argv + ["--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error" in err

    def test_short_labels_error_names_file_and_line(self, data_dir, capsys):
        (data_dir / "short.csv").write_text("id,color\n0,a\n1,b\n")
        code = main(["analyze", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--labels", str(data_dir / "short.csv")])
        assert code == 2
        assert f"{data_dir / 'short.csv'}:4:" in capsys.readouterr().err

    def test_labels_file_adds_an_attribute(self, data_dir, capsys):
        # posdis needs two attributes: one in the input CSV, one here
        (data_dir / "color.csv").write_text(
            "id,color\n0,r\n1,g\n2,r\n3,g\n")
        code = main(["metrics", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--labels", str(data_dir / "color.csv"), "--d", "2",
                     "--metrics", "posdis"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["posdis"] == 1.0

    def test_analyze_writes_json_and_csv(self, data_dir, capsys):
        out = data_dir / "out"
        code = main(["analyze", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--d", "2", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header.startswith("unique_messages,disc_accuracy,topsim")

    def test_determinism_byte_identical(self, data_dir):
        args = ["analyze", "--input", str(data_dir / "space.csv"),
                "--protocol", str(data_dir / "protocol.csv"), "--d", "2",
                "--seed", "11"]
        assert main(args + ["--out", str(data_dir / "r1")]) == 0
        assert main(args + ["--out", str(data_dir / "r2")]) == 0
        assert (data_dir / "r1" / "report.json").read_bytes() == \
            (data_dir / "r2" / "report.json").read_bytes()
        assert (data_dir / "r1" / "report.csv").read_bytes() == \
            (data_dir / "r2" / "report.csv").read_bytes()

    def test_verify_definition_with_expectation(self, data_dir):
        args = ["verify", "--def", "3",
                "--input", str(data_dir / "space.csv"),
                "--protocol", str(data_dir / "protocol.csv")]
        assert main(args + ["--expect", "pass"]) == 0
        assert main(args + ["--expect", "fail"]) == 1

    def test_verify_lemma(self, capsys):
        code = main(["verify", "--lemma", "1", "--instances", "10",
                     "--seed", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] and report["max_gap"] < 1e-10

    @pytest.mark.parametrize("lemma", ["2", "a1", "a2", "a3"])
    def test_verify_variant_lemmas(self, lemma, capsys):
        code = main(["verify", "--lemma", lemma, "--instances", "8",
                     "--seed", "4", "--expect", "pass"])
        assert code == 0

    def test_verify_lemma2_monte_carlo(self, capsys):
        code = main(["verify", "--lemma", "2", "--d", "3", "--instances",
                     "3", "--samples", "20000", "--seed", "6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]
        assert report["max_gap_in_4se_units"] <= 1.0

    def test_verify_corollary(self, capsys):
        code = main(["verify", "--corollary", "1", "--n", "4", "--k", "2",
                     "--d", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]

    def test_verify_corollary_counts_every_equal_mass_optimum(self, capsys):
        code = main(["verify", "--corollary", "1", "--n", "12", "--k", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]
        assert report["witnesses"]["num_optimal"] == 34650  # 12!/(4!)^3
        assert report["witnesses"]["minimizers_all_equal_mass"]

    def test_optimize_kmeans_round_trip(self, data_dir, capsys):
        out = data_dir / "opt"
        code = main(["optimize", "--input", str(data_dir / "space.csv"),
                     "--game", "reconstruction", "--method", "kmeans",
                     "--k", "2", "--init", "0.4,2.6", "--out", str(out)])
        assert code == 0
        protocol, _ = io.load_protocol(out / "protocol.csv")
        assert protocol.assignment.tolist() == [0, 0, 1, 1]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,objective"
        result = json.loads((out / "result.json").read_text())
        assert result["objective"] == 0.25

    def test_optimize_budget_exits_3(self, data_dir):
        code = main(["optimize", "--input", str(data_dir / "space.csv"),
                     "--method", "exhaustive", "--k", "2", "--budget", "2",
                     "--out", str(data_dir / "ob")])
        assert code == 3

    def test_optimize_balanced(self, data_dir, capsys):
        out = data_dir / "bal"
        code = main(["optimize", "--input", str(data_dir / "space.csv"),
                     "--game", "discrimination", "--method", "balanced",
                     "--flavor", "greedy-uniform", "--k", "2",
                     "--out", str(out)])
        assert code == 0
        protocol, _ = io.load_protocol(out / "protocol.csv")
        p = protocol.assignment.tolist()
        assert sorted([p.count(0), p.count(1)]) == [2, 2]

    def test_counterexample_thm5(self, tmp_path, capsys):
        out = tmp_path / "ctr"
        code = main(["counterexample", "--which", "thm5", "--out", str(out)])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"]
        space, _ = io.load_input_space(out / "space.csv")
        assert abs(space.variance() - 91.0 / 6.0) < 1e-9
        recv = io.load_receiver(out / "receiver.json")
        assert len(recv.table) == 864

    def test_counterexample_thm2(self, tmp_path, capsys):
        out = tmp_path / "ctr2"
        code = main(["counterexample", "--which", "thm2", "--out", str(out)])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"] and not verdict["semantically_consistent"]

    def test_log_base_bits(self, data_dir, capsys):
        code = main(["verify", "--corollary", "1", "--n", "4", "--k", "2",
                     "--d", "2", "--log-base", "bits"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # log 2 * sum p^2 = 0.5 in bits for the even split
        assert abs(report["witnesses"]["exhaustive_minimum"] - 0.5) < 1e-9

    def test_log_base_leaves_non_log_units_alone(self, data_dir, capsys):
        out = data_dir / "lb"
        code = main(["optimize", "--input", str(data_dir / "space.csv"),
                     "--game", "reconstruction", "--method", "exhaustive",
                     "--k", "2", "--log-base", "bits", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["objective"] == 0.25  # variance units, not nats

    def test_format_csv_on_stdout(self, data_dir, capsys):
        code = main(["metrics", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--d", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("unique_messages,disc_accuracy")
        assert lines[1].split(",")[0] == "2"
