import contextlib
import io as textio
import itertools
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgames import (
    GameSpec,
    InputSpace,
    LabelMap,
    ParseError,
    Protocol,
    balanced_partition,
    exhaustive_search,
    synchronized_receiver,
)
from signalgames import cli, counterexamples, games, io, optimize
from signalgames.cli import _equal_mass_partitions, main
from signalgames.counterexamples import build_mirror_pairs_instance

from conftest import first_appearance, random_space, rng_for
from oracles import materialize_discrimination_table


@pytest.fixture
def data_dir(tmp_path, space_b, split, labels_ab):
    io.save_input_space(tmp_path / "space.csv", space_b, [labels_ab])
    io.save_protocol(tmp_path / "protocol.csv", split,
                     io.default_message_space(2))
    return tmp_path


def _never(*args):
    raise AssertionError("called past the budget")


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

    def test_random_json_spaces_load_exactly(self, tmp_path):
        # rounded to 12 digits, most of these reloaded to other arrays and
        # some no longer had weights summing to 1
        rng = rng_for("save-input-space-json-200")
        path = tmp_path / "space.json"
        for _ in range(200):
            w = rng.random(5)
            space = InputSpace(rng.normal(size=(5, 2)), w / w.sum())
            attr = LabelMap(list(rng.integers(0, 3, size=5)), "attr")
            io.save_input_space(path, space, [attr])
            loaded, (back,) = io.load_input_space(path)
            assert np.array_equal(loaded.points, space.points)
            assert np.array_equal(loaded.weights, space.weights)
            assert np.array_equal(back.labels, attr.labels)
            assert back.name == "attr"

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

    def test_tabular_rows_serialize_in_query_order(self):
        # candidates past 9 sort apart as integers and as strings; the rows
        # are given shuffled, and serialized by message, then candidates
        rng = rng_for("tabular-serialize-order")
        queries = [(m, tuple(c.tolist())) for m in range(3)
                   for c in rng.integers(0, 14, size=(60, 3))]
        rng.shuffle(queries)
        recv = games.TabularDiscriminationReceiver(3, 3, {
            q: (w := rng.random(3) + 0.1) / w.sum() for q in queries})
        want = {"kind": "discrimination", "d": 3, "num_messages": 3,
                "rows": [{"message": int(m),
                          "candidates": [int(c) for c in cands],
                          "probs": [float(v) for v in row]}
                         for (m, cands), row in sorted(recv.table.items())]}
        data = io.receiver_to_json(recv)
        assert io.dumps_report(data) == io.dumps_report(want)
        back = io.receiver_from_json(data)
        assert io.dumps_report(io.receiver_to_json(back)) \
            == io.dumps_report(want)

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

    @staticmethod
    def random_receiver(kind: str, rng):
        """A receiver of ``kind`` with random rows, the tabular one with
        three candidates of up to 13 given in shuffled query order."""
        def dist(*shape):
            w = rng.random(shape) + 0.01
            return w / w.sum(axis=-1, keepdims=True)
        if kind == "discrimination":
            queries = {(int(rng.integers(3)),
                        tuple(rng.integers(14, size=3).tolist()))
                       for _ in range(120)}
            queries = [queries.pop() for _ in range(len(queries))]
            return games.TabularDiscriminationReceiver(
                3, 3, dict(zip(queries, dist(len(queries), 3))))
        if kind == "global":
            return games.GlobalReceiver(dist(4, 6))
        if kind == "classification":
            return games.ClassificationReceiver(dist(4, 3))
        if kind == "reconstruction":
            return games.ReconstructionReceiver(
                rng.normal(size=(4, 2)) / 3, [True, False, True, True])
        return games.ConstantDiscriminationReceiver(dist(3), 5)

    @staticmethod
    def receiver_arrays(recv) -> list[np.ndarray]:
        """The arrays that define ``recv``: a table's in query order, a
        per-message receiver's defined rows and mask."""
        if isinstance(recv, games.TabularDiscriminationReceiver):
            order = np.lexsort((*recv.candidates.T[::-1], recv.messages))
            return [recv.messages[order], recv.candidates[order],
                    recv.rows[order]]
        if isinstance(recv, games.ConstantDiscriminationReceiver):
            return [recv.vector]
        table = getattr(recv, next(
            a for a in ("points", "table", "conditional") if hasattr(recv, a)))
        return [table[recv.defined], recv.defined]

    @pytest.mark.parametrize("kind", [
        "discrimination", "global", "classification", "reconstruction",
        "constant-discrimination"])
    def test_saved_receiver_loads_exactly(self, tmp_path, kind):
        recv = self.random_receiver(kind, rng_for(f"save-receiver-{kind}"))
        io.save_receiver(tmp_path / "r.json", recv)
        back = io.load_receiver(tmp_path / "r.json")
        assert type(back) is type(recv)
        assert back.num_messages == recv.num_messages
        for got, want in zip(self.receiver_arrays(back),
                             self.receiver_arrays(recv), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_random_classification_receivers_load_exactly(self, tmp_path):
        # rounded to 12 digits in a report, many of these rows sum more
        # than 1e-12 away from 1 and no longer load
        rng = rng_for("save-receiver-classification-200")
        path = tmp_path / "r.json"
        for _ in range(200):
            recv = self.random_receiver("classification", rng)
            io.save_receiver(path, recv)
            back = io.load_receiver(path)
            assert np.array_equal(back.conditional, recv.conditional)
            assert back.defined.all()

    def test_saved_receiver_layout(self, tmp_path):
        recv = build_mirror_pairs_instance().receiver
        io.save_receiver(tmp_path / "r.json", recv)
        text = (tmp_path / "r.json").read_text()
        lines = text.split("\n")
        assert lines[:6] == [
            "{", '  "d": 2,', '  "kind": "discrimination",',
            '  "num_messages": 6,', '  "rows": [',
            '    {"candidates": [0, 0], "message": 0, "probs": [0.5, 0.5]},']
        assert lines[-4:] == [
            '    {"candidates": [11, 11], "message": 5, "probs": [0.5, 0.5]}',
            "  ]", "}", ""]
        assert len(lines) == 864 + 8
        assert len(text.encode()) <= 60_000
        back = io.load_receiver(tmp_path / "r.json")
        for got, want in zip(self.receiver_arrays(back),
                             self.receiver_arrays(recv), strict=True):
            assert np.array_equal(got, want)


    @pytest.mark.parametrize("edit, message", [
        (("candidates", [1.5, 0]), "a candidate must be an integer, got 1.5"),
        (("message", True), "a row's message must be an integer, got True"),
        (("message", "1"), "a row's message must be an integer, got '1'"),
        (("d", 2.0), "d must be an integer, got 2.0"),
        (("num_messages", False),
         "num_messages must be an integer, got False"),
        (("rows", "repeat"), r"query \(1, \(0, 1\)\) has two rows"),
        (("rows", []), "^error: [^\n]*: bad receiver JSON: no receiver row "
                       "is defined\n\\Z"),
    ])
    @pytest.mark.parametrize("definition", ["5", "6"])
    def test_malformed_table_exits_2(self, tmp_path, space_b, edit, message,
                                     definition, capsys):
        # int() once read 1.5 as 1, true and "1" as 1, and let the last of
        # two rows for one query win
        rows = [{"message": m, "candidates": [a, b], "probs": [0.5, 0.5]}
                for m in range(2) for a in range(4) for b in range(4)]
        doc = {"kind": "discrimination", "d": 2, "num_messages": 2,
               "rows": rows}
        key, value = edit
        if value == "repeat":
            rows.append(dict(rows[17], probs=[0.25, 0.75]))
        elif key in doc:
            doc[key] = value
        else:
            rows[17][key] = value
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--def", definition, "--input",
                str(tmp_path / "space.csv"), "--receiver", str(path)]
        if definition == "6":
            argv += ["--game", "discrimination", "--d", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: bad receiver JSON: ")
        assert re.search(message, err)

    @pytest.mark.parametrize("edits, message", [
        ({17: ("message", 1.0)},
         "a row's message must be an integer, got 1.0"),
        ({17: ("candidates", [0, True])},
         "a candidate must be an integer, got True"),
        ({32: ("probs", [0.25, 0.75])}, "query (1, (0, 1)) has two rows"),
        ({17: ("probs", [1.0])},
         "row for query (1, (0, 1)) is not a distribution"),
        ({17: ("probs", [0.5, 0.25])},
         "row for query (1, (0, 1)) is not a distribution"),
        ({17: ("message", 2)},
         "query (2, (0, 1)) is not a message below 2 with 2 candidates"),
        # with two faults, the rows are read in file order: every row's
        # query and probabilities first, then each row's range and length
        ({3: ("probs", ["x", 0.5]), 17: ("message", 1.5)},
         "could not convert string to float: 'x'"),
        ({3: ("probs", [1.0]), 17: ("message", 5)},
         "row for query (0, (0, 3)) is not a distribution"),
        ({3: ("message", 5), 17: ("probs", [1.0])},
         "query (5, (0, 3)) is not a message below 2 with 2 candidates"),
        ({3: ("probs", [0.5, 0.25]), 17: ("message", 5)},
         "query (5, (0, 1)) is not a message below 2 with 2 candidates"),
        ({17: ("candidates", [0, 2 ** 70])},
         "a table query does not fit in 64-bit integers"),
        # the 64-bit test comes after every other rule
        ({3: ("candidates", [0, 2 ** 70]), 17: ("probs", [0.5, 0.25])},
         "row for query (1, (0, 1)) is not a distribution"),
    ], ids=["float-message", "bool-candidate", "duplicate-query",
            "short-probs", "probs-sum", "message-past-range",
            "probs-before-message", "short-before-range",
            "range-before-short", "range-before-sum", "past-64-bits",
            "sum-before-64-bits"])
    def test_malformed_table_text_is_exact(self, tmp_path, space_b, edits,
                                           message, capsys):
        rows = [{"message": m, "candidates": [a, b], "probs": [0.5, 0.5]}
                for m in range(2) for a in range(4) for b in range(4)]
        for row, (key, value) in edits.items():
            if row == len(rows):  # a second row for row 17's query
                rows.append(dict(rows[17]))
            rows[row][key] = value
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"kind": "discrimination", "d": 2,
                                    "num_messages": 2, "rows": rows}))
        assert main(["verify", "--def", "5", "--input",
                     str(tmp_path / "space.csv"), "--receiver",
                     str(path)]) == 2
        assert capsys.readouterr().err \
            == f"error: {path}:1: bad receiver JSON: {message}\n"


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

    def test_topsim_over_pair_budget_is_an_error_entry(
            self, data_dir, monkeypatch, capsys):
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 5)
        code = main(["analyze", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--d", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["topsim"] == {
            "error": "topsim needs 6 input pairs (budget 5)"}
        assert report["message_variance"] == 0.25

    def test_sparse_table_query_exits_2(self, data_dir, capsys):
        # a table without a query the game asks is a defect of the file
        table = data_dir / "table.json"
        table.write_text(json.dumps(
            {"kind": "discrimination", "d": 2, "num_messages": 2,
             "rows": [{"message": 0, "candidates": [0, 1],
                       "probs": [0.5, 0.5]}]}))
        code = main(["verify", "--def", "6", "--game", "discrimination",
                     "--d", "2", "--input", str(data_dir / "space.csv"),
                     "--receiver", str(table),
                     "--out", str(data_dir / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {table}: receiver undefined on query (0, (0, 0))\n"

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
        "table_candidate_out_of_range", "analyze_d1", "symbol_groups_not_int",
        "kmeans_init_shape", "optimize_d1", "lemma2_d1",
        "supervised_d_above_labels", "table_without_rows",
        "receiver_beyond_message_space", "lemma_instances_0",
        "corollary_n0", "kmeans_max_iters_0", "kmeans_k_above_points",
        "antipodal_k_mismatch", "verify_samples", "symbol_above_vocab",
        "metrics_d0", "def4_eps0_0", "def4_eps0_negative", "def5_eps0_0",
        "def5_eps0_negative", "def5_eps0_nan", "def3_protocol_size",
        "def4_protocol_size", "kmeans_init_nan", "kmeans_init_inf"])
    def test_malformed_input_exits_2(self, case, tmp_path, space_b, capsys):
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "protocol.csv").write_text(
            "id,message\n0,0\n1,0\n2,1\n3,1\n")
        (tmp_path / "protocol5.csv").write_text(
            "id,message\n0,0\n1,0\n2,1\n3,5\n")
        (tmp_path / "protocol3.csv").write_text(
            "id,message\n0,0\n1,0\n2,1\n")
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
            "analyze_d1": ["analyze", "--input", space, "--protocol",
                           protocol, "--d", "1"],
            "metrics_d0": ["metrics", "--input", space, "--protocol",
                           protocol, "--metrics", "disc_accuracy", "--d", "0"],
            "def4_eps0_0": ["verify", "--def", "4", "--input", space,
                            "--protocol", protocol, "--eps0", "0"],
            "def4_eps0_negative": ["verify", "--def", "4", "--input", space,
                                   "--protocol", protocol, "--eps0", "-1"],
            "def5_eps0_0": ["verify", "--def", "5", "--input", space,
                            "--receiver", str(tmp_path / "points.json"),
                            "--eps0", "0"],
            "def5_eps0_negative": ["verify", "--def", "5", "--input", space,
                                   "--receiver", str(tmp_path / "points.json"),
                                   "--eps0", "-1"],
            "def5_eps0_nan": ["verify", "--def", "5", "--input", space,
                              "--receiver", str(tmp_path / "points.json"),
                              "--eps0", "nan"],
            "def3_protocol_size": ["verify", "--def", "3", "--input", space,
                                   "--protocol",
                                   str(tmp_path / "protocol3.csv")],
            "def4_protocol_size": ["verify", "--def", "4", "--input", space,
                                   "--protocol",
                                   str(tmp_path / "protocol3.csv")],
            "symbol_groups_not_int": ["analyze", "--input", space,
                                      "--protocol", protocol,
                                      "--symbol-groups", "0;x"],
            "kmeans_init_shape": ["optimize", "--method", "kmeans", "--init",
                                  "0.1,0.2,0.3", "--k", "2", "--input",
                                  space],
            "kmeans_init_nan": ["optimize", "--method", "kmeans", "--init",
                                "nan,1", "--k", "2", "--input", space],
            "kmeans_init_inf": ["optimize", "--method", "kmeans", "--init",
                                "0;-inf", "--k", "2", "--input", space],
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
            # lemma checks are exact; there is no Monte-Carlo sample count
            "verify_samples": ["verify", "--lemma", "2", "--d", "3",
                               "--samples", "20000"],
            "symbol_above_vocab": ["metrics", "--input", space, "--protocol",
                                   str(tmp_path / "protocol5.csv"), "--vocab",
                                   "2"],
        }[case]
        try:
            code = main(argv + ["--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error" in err

    @pytest.mark.parametrize("argv", [
        ["counterexample", "--which", "thm2", "--input", "space.csv"],
        ["counterexample", "--which", "thm5", "--input", "space.csv"],
        ["optimize", "--k", "2", "--input", "space.csv", "--labels",
         "trace.csv"],
        ["optimize", "--k", "2", "--input", "out/protocol.csv", "--out",
         "out"],
        ["analyze", "--input", "space.csv", "--protocol", "protocol.csv",
         "--labels", "report.csv", "--out", "."],
        ["verify", "--def", "3", "--input", "space.csv", "--protocol",
         "verdict.json", "--out", "."],
    ], ids=["thm2", "thm5", "optimize_labels", "optimize_out",
            "analyze", "verify"])
    def test_outputs_never_overwrite_inputs(self, argv, tmp_path, space_b,
                                            split, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        for path in ("space.csv", "out/protocol.csv"):
            io.save_input_space(tmp_path / path, space_b)
        io.save_protocol(tmp_path / "protocol.csv", split,
                         io.default_message_space(2))
        io.save_protocol(tmp_path / "verdict.json", split,
                         io.default_message_space(2))
        for path in ("trace.csv", "report.csv"):
            (tmp_path / path).write_text("id,c\n0,a\n1,a\n2,b\n3,b\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file()}
        assert main(argv) == 2
        assert "would overwrite an input file" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before

    def test_verify_def5_over_pair_budget_exits_3(self, tmp_path, space_b,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 2)
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "points.json").write_text(
            '{"kind": "reconstruction", "outputs": [[0.5], [1.5], [2.5]]}')
        code = main(["verify", "--def", "5", "--input",
                     str(tmp_path / "space.csv"), "--receiver",
                     str(tmp_path / "points.json")])
        assert code == 3
        assert "3 domain pairs (budget 2)" in capsys.readouterr().err

    def test_verify_def5_pair_budget_before_any_message_table(
            self, tmp_path, space_b, monkeypatch, capsys):
        # 2,000 messages without --protocol: the default message space and
        # the pair count come before eps_M or any K x K array (a dense
        # table of this space peaked at 65 MB)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 10 ** 6)
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "points.json").write_text(json.dumps(
            {"kind": "reconstruction",
             "outputs": np.arange(2000.0)[:, None].tolist()}))
        tracemalloc.start()
        try:
            code = main(["verify", "--def", "5", "--input",
                         str(tmp_path / "space.csv"), "--receiver",
                         str(tmp_path / "points.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "needs 1999000 domain pairs" in capsys.readouterr().err
        assert peak < 8 * 2 ** 20

    def test_verify_def5_one_message_needs_eps0(self, tmp_path, space_b,
                                                capsys):
        # epsilon_M, the default eps0, needs two messages
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "points.json").write_text(
            '{"kind": "reconstruction", "outputs": [[1.5]]}')
        argv = ["verify", "--def", "5", "--input",
                str(tmp_path / "space.csv"), "--receiver",
                str(tmp_path / "points.json")]
        assert main(argv) == 2
        assert "needs --eps0" in capsys.readouterr().err
        assert main([*argv, "--eps0", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]

    def test_verify_def4_one_message_needs_eps0(self, tmp_path, space_b,
                                                capsys):
        # epsilon_M, the default eps0, needs two messages; given eps0, the
        # only threshold is 0, where every pair merges, so no check is
        # strict and the below-eps_M warning has nothing to compare
        io.save_input_space(tmp_path / "space.csv", space_b)
        (tmp_path / "protocol.csv").write_text(
            "id,message\n0,0\n1,0\n2,0\n3,0\n")
        argv = ["verify", "--def", "4", "--input",
                str(tmp_path / "space.csv"), "--protocol",
                str(tmp_path / "protocol.csv")]
        assert main(argv) == 2
        assert "needs --eps0" in capsys.readouterr().err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--eps0", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["verdict"]
        assert [t["epsilon"] for t in report["witnesses"]] == [0.0]
        assert report["witnesses"][0]["boundary"]

    def test_verify_def4_over_message_pair_budget_exits_3(
            self, tmp_path, monkeypatch, capsys):
        # 12 inputs on 12 distinct messages: 144 message pairs
        io.save_input_space(tmp_path / "space.csv",
                            InputSpace.uniform(np.arange(12.0)[:, None]))
        io.save_protocol(tmp_path / "protocol.csv",
                         Protocol(np.arange(12), 12),
                         io.default_message_space(12))
        argv = ["verify", "--def", "4", "--input",
                str(tmp_path / "space.csv"), "--protocol",
                str(tmp_path / "protocol.csv")]
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 144)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 143)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "needs 144 message pairs (budget 143)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value,where", [
        ("NaN", ":3:4: non-finite number NaN"),
        ("Infinity", ":3:4: non-finite number Infinity"),
        ("-Infinity", ":3:4: non-finite number -Infinity"),
        ("1e999", ":1: bad receiver JSON: receiver values must be finite"),
        ("null", ":1: bad receiver JSON: receiver values must be finite"),
        ('"nan"', ":1: bad receiver JSON: receiver values must be finite")])
    @pytest.mark.parametrize("definition", ["5", "6"])
    def test_non_finite_receiver_exits_2(self, tmp_path, space_b, value,
                                         where, definition, capsys):
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "points.json"
        path.write_text('{"kind": "reconstruction",\n "outputs": [[0.0],\n'
                        f'  [{value}], [0.1]]}}')
        code = main(["verify", "--def", definition, "--input",
                     str(tmp_path / "space.csv"), "--receiver", str(path)])
        assert code == 2
        assert f"{path}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["null", "1e999", '"nan"'])
    @pytest.mark.parametrize("text,message", [
        ('{{"kind": "constant-discrimination", "vector": [{}, 0.5]}}',
         "constant output is not a distribution"),
        ('{{"kind": "discrimination", "d": 2, "num_messages": 1, "rows": '
         '[{{"message": 0, "candidates": [0, 1], "probs": [{}, 0.5]}}]}}',
         "row for query (0, (0, 1)) is not a distribution")],
        ids=["constant", "tabular"])
    def test_non_finite_distribution_exits_2(self, tmp_path, space_b, value,
                                             text, message, capsys):
        # the receiver refuses the row; the loader adds no check of its own
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "receiver.json"
        path.write_text(text.format(value))
        code = main(["verify", "--def", "5", "--input",
                     str(tmp_path / "space.csv"), "--receiver", str(path)])
        assert code == 2
        assert capsys.readouterr().err \
            == f"error: {path}:1: bad receiver JSON: {message}\n"

    @pytest.mark.parametrize("outputs", ["[[[]], [[]]]", "[[[0.0]], [[1.0]]]",
                                         "[0.0, 1.0]"])
    @pytest.mark.parametrize("definition", ["5", "6"])
    def test_receiver_rows_not_lists_of_numbers_exit_2(
            self, tmp_path, space_b, outputs, definition, capsys):
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "points.json"
        path.write_text(f'{{"kind": "reconstruction", "outputs": {outputs}}}')
        code = main(["verify", "--def", definition, "--input",
                     str(tmp_path / "space.csv"), "--receiver", str(path)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_classification_rows_not_distributions_exit_2(
            self, tmp_path, space_b, capsys):
        # rows summing to 3.5 once scored a negative sup_loss and a true
        # verdict
        io.save_input_space(tmp_path / "space.csv", space_b)
        path = tmp_path / "conditional.json"
        path.write_text(json.dumps({"kind": "classification",
                                    "conditional": [[3.0, 0.5]] * 3}))
        code = main(["verify", "--def", "6", "--game", "discrimination",
                     "--d", "2", "--input", str(tmp_path / "space.csv"),
                     "--receiver", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: bad receiver JSON: row 0 is not a "
            "probability distribution\n")

    def test_verify_def6_sender_over_term_budget_exits_3(
            self, tmp_path, space_b, split, monkeypatch, capsys):
        # the synchronized sender scores 2 message choices x 32 terms; past
        # the budget the verdict is an exit 3, never a sampled estimate
        io.save_input_space(tmp_path / "space.csv", space_b)
        io.write_report(tmp_path / "table.json", io.receiver_to_json(
            materialize_discrimination_table(
                games.SynchronizedDiscriminationReceiver(split, 2),
                space_b)))
        argv = ["verify", "--def", "6", "--game", "discrimination", "--d",
                "2", "--input", str(tmp_path / "space.csv"), "--receiver",
                str(tmp_path / "table.json")]
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 64)
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["witnesses"]["sup_loss"] == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 63)
        assert main(argv) == 3
        assert "needs 64 terms (budget 63)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, name", [
        (["analyze", "--input", "{space}", "--protocol", "{protocol}",
          "--d", "2"], "report.json"),
        (["verify", "--def", "4", "--input", "{space}", "--protocol",
          "{protocol}"], "verdict.json"),
        (["optimize", "--input", "{space}", "--game", "reconstruction",
          "--method", "kmeans", "--k", "2"], "result.json"),
        (["optimize", "--input", "{space}", "--game", "discrimination",
          "--method", "balanced", "--k", "2"], "result.json"),
        (["counterexample", "--which", "thm2"], "verdict.json"),
        (["counterexample", "--which", "thm5"], "verdict.json"),
    ])
    def test_stdout_is_the_json_report(self, argv, name, data_dir, capsys,
                                       monkeypatch):
        # the report is encoded once, and that text goes to both
        encoded = []
        dumps = io.dumps_report
        monkeypatch.setattr(io, "dumps_report", lambda obj: encoded.append(
            "schema" in obj) or dumps(obj))
        out = data_dir / "same"
        argv = [a.format(space=data_dir / "space.csv",
                         protocol=data_dir / "protocol.csv") for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == \
            (out / name).read_bytes()
        assert encoded.count(True) == 1

    def test_kmeans_k_above_distinct_points(self, tmp_path, capsys):
        io.save_input_space(tmp_path / "space.csv",
                            InputSpace.uniform([[0.0], [1.0], [1.0]]))
        assert main(["optimize", "--method", "kmeans", "--k", "3",
                     "--input", str(tmp_path / "space.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "--k 3 centroids for 2 distinct input points" \
            in capsys.readouterr().err

    def test_kmeans_repair_failure_exits_2(self, tmp_path, capsys):
        # squared distances of 1e-300 points underflow to 0, so k-means
        # cannot fill its empty clusters
        path = tmp_path / "space.csv"
        path.write_text("id,x0,weight\n" + "".join(
            f"{i},{float(x)!r},0.2\n" for i, x in enumerate(
                np.array([1.0, 2.0, 0.0, 0.5, -1.0]) * 1e-300)))
        assert main(["optimize", "--method", "kmeans", "--k", "3",
                     "--game", "reconstruction", "--input", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: --k 3 centroids: "
                              "empty-cluster repair did not converge")
        assert "Traceback" not in err

    def test_stdout_is_the_csv_report(self, data_dir, capsys, monkeypatch):
        # the CSV row is formatted once, and that text goes to both
        formatted = []
        row_text = cli._csv_row_text
        monkeypatch.setattr(cli, "_csv_row_text", lambda report:
                            formatted.append(1) or row_text(report))
        out = data_dir / "same"
        assert main(["analyze", "--input", str(data_dir / "space.csv"),
                     "--protocol", str(data_dir / "protocol.csv"),
                     "--d", "2", "--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == \
            (out / "report.csv").read_bytes()
        assert len(formatted) == 1

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

    def test_verify_lemma2_exact_at_d3(self, capsys):
        code = main(["verify", "--lemma", "2", "--d", "3", "--instances",
                     "3", "--seed", "6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] and report["max_gap"] < 1e-10
        assert "max_gap_in_4se_units" not in report

    @pytest.mark.parametrize("lemma,d", [
        ("1", 2), ("2", 2), ("a1", 2), ("a2", 2), ("a3", 2), ("2", 3),
        ("a2", 3)])
    def test_verify_lemma_default_run_is_exact(self, lemma, d, capsys):
        # the default seed and instance count
        code = main(["verify", "--lemma", lemma, "--d", str(d), "--expect",
                     "pass"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_gap"] < 1e-10 and report["tolerance"] == 1e-10
        assert "max_gap_in_4se_units" not in report

    def test_verify_lemma2_at_d20(self, capsys):
        # the second instance at the default seed has 8 inputs: 8 targets
        # x C(26, 19) distractor multisets, 5,262,400 terms
        code = main(["verify", "--lemma", "2", "--d", "20", "--instances",
                     "2", "--expect", "pass"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == 20 and report["max_gap"] < 1e-10

    @pytest.mark.parametrize("argv,terms", [
        # 15 balanced labels on 15 inputs: each target draws 14 distractors
        # from the 14 other inputs, 15 * C(27, 14) multisets
        (["--lemma", "a2", "--d", "15"], 15 * math.comb(27, 14)),
        # the first instance at seed 1 has 4 inputs: 4 * C(533, 530)
        (["--lemma", "2", "--d", "531", "--seed", "1"],
         4 * math.comb(533, 530))])
    def test_verify_lemma_past_term_budget_exits_3(self, argv, terms, capsys):
        assert terms > games.EXACT_TERM_BUDGET
        assert main(["verify", *argv]) == 3
        assert f"needs {terms} terms" in capsys.readouterr().err

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

    def test_verify_corollary_past_the_tie_budget(self, monkeypatch,
                                                  capsys):
        # the 2,048 partitions of 12 inputs into at most 2 blocks fit a
        # budget of 5,000, the 462 tied halvings' 5,544 entries do not:
        # the census reads them from a second scan
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 5000)
        code = main(["verify", "--corollary", "1", "--n", "12", "--k", "2",
                     "--expect", "pass"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["witnesses"]["num_optimal"] == 924
        assert report["witnesses"]["minimizers_all_equal_mass"]

    def test_verify_corollary_fails_on_a_missing_equal_mass_optimum(
            self, capsys, monkeypatch):
        search = optimize.optima

        def drop_first(*args):
            value, blocks = search(*args)
            rows = np.concatenate(list(blocks))
            return value, iter([rows[1:]])

        monkeypatch.setattr(optimize, "optima", drop_first)
        code = main(["verify", "--corollary", "1", "--n", "4", "--k", "2",
                     "--d", "2", "--expect", "fail"])
        assert code == 0
        assert not json.loads(capsys.readouterr().out)["verdict"]

    def test_verify_corollary_one_message_many_inputs(self, capsys):
        # one equal-mass assignment over 1,500 inputs, enumerated without
        # one stack frame per input
        code = main(["verify", "--corollary", "1", "--n", "1500", "--k",
                     "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]
        assert report["witnesses"]["num_optimal"] == 1

    def test_verify_corollary_one_message_never_repeats_rows(
            self, capsys, monkeypatch):
        # the one partition is built whole, not grown a column at a time
        def refuse(*args, **kwargs):
            raise AssertionError("np.repeat on the one-message path")

        monkeypatch.setattr(np, "repeat", refuse)
        code = main(["verify", "--corollary", "1", "--n", "20000", "--k",
                     "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"]

    def test_equal_mass_count_matches_factorials(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                if n % k == 0:
                    size = n // k
                    assert _equal_mass_partitions(n, k) == math.factorial(
                        n) // (math.factorial(size) ** k * math.factorial(k))

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

    def test_optimize_budget_exits_3(self, data_dir, monkeypatch, capsys):
        argv = ["optimize", "--input", str(data_dir / "space.csv"),
                "--method", "exhaustive", "--out", str(data_dir / "ob")]
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 7)
        assert main([*argv, "--k", "2"]) == 3
        assert "needs 8 partitions (budget 7)" in capsys.readouterr().err
        # 15 partitions fit, and the optimum's 4 blocks have 100000!/99996!
        # labellings, past sys.maxsize: counted exactly, and none is built
        # but the first, the tied partition itself
        monkeypatch.undo()
        monkeypatch.setattr(itertools, "permutations", _never)
        assert main([*argv, "--k", "100000"]) == 0
        report = json.loads((data_dir / "ob" / "result.json").read_text())
        assert report["num_optimal"] == math.perm(100000, 4)
        assert report["num_optimal_up_to_relabeling"] == 1
        assert f'"num_optimal": {math.perm(100000, 4)},' \
            in capsys.readouterr().out
        protocol, _ = io.load_protocol(data_dir / "ob" / "protocol.csv")
        assert protocol.assignment.tolist() == [0, 1, 2, 3]

    def test_verify_corollary_past_partition_budget_exits_3(
            self, monkeypatch, capsys):
        # the partition count stops at 14 inputs, whose 190,899,322
        # partitions pass the budget, and no partition is scored
        monkeypatch.setattr(optimize, "_block_objective", _never)
        assert main(["verify", "--corollary", "1", "--n", "100000",
                     "--k", "100000"]) == 3
        assert "exhaustive search needs at least 190899322 partitions " \
            "(budget 100000000)" in capsys.readouterr().err

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

    def test_counterexample_thm5(self, tmp_path, capsys, monkeypatch):
        # the instance that is verified is the one written, built once
        built = []
        monkeypatch.setattr(counterexamples, "build_mirror_pairs_instance",
                            lambda: built.append(1)
                            or build_mirror_pairs_instance())
        out = tmp_path / "ctr"
        code = main(["counterexample", "--which", "thm5", "--out", str(out)])
        assert code == 0
        assert built == [1]
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"]
        space, _ = io.load_input_space(out / "space.csv")
        assert abs(space.variance() - 91.0 / 6.0) < 1e-9
        recv = io.load_receiver(out / "receiver.json")
        assert len(recv.table) == 864

    def test_thm5_receiver_in_the_report_layout(self, tmp_path, capsys):
        # the same receiver as an indented report at 12 digits reads the
        # same; rows of 0, 0.5 and 1 lose nothing to the rounding
        out = tmp_path / "ctr"
        assert main(["counterexample", "--which", "thm5", "--out",
                     str(out)]) == 0
        io.write_report(out / "old.json", io.receiver_to_json(
            build_mirror_pairs_instance().receiver))
        capsys.readouterr()
        stdout = {}
        for name in ("receiver.json", "old.json"):
            common = ["--input", str(out / "space.csv"), "--receiver",
                      str(out / name)]
            assert main(["verify", "--def", "5", *common,
                         "--expect", "pass"]) == 0
            assert main(["verify", "--def", "6", "--game", "discrimination",
                         "--d", "2", *common]) == 0
            stdout[name] = capsys.readouterr().out
        assert stdout["receiver.json"] == stdout["old.json"]
        assert (out / "old.json").stat().st_size > \
            (out / "receiver.json").stat().st_size

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


class TestOptimaCensus:
    """``optimize --method exhaustive`` counts the semantically consistent
    optima up to relabeling."""

    @staticmethod
    def optimize(tmp_path, space, game, k):
        io.save_input_space(tmp_path / "space.csv", space)
        code = main(["optimize", "--input", str(tmp_path / "space.csv"),
                     "--game", game, "--d", "2", "--k", str(k),
                     "--method", "exhaustive", "--out", str(tmp_path)])
        assert code == 0
        return json.loads((tmp_path / "result.json").read_text())

    def test_census_holds_no_int_copy_of_the_ties(self, tmp_path, capsys):
        # 126,126 equal-mass partitions of 15 inputs tie at K=3: 15.1 MB
        # as an int array, 1.9 MB as the enumerator's 1-byte strings
        space = InputSpace.uniform(np.arange(15.0)[:, None])
        tracemalloc.start()
        try:
            report = self.optimize(tmp_path, space, "discrimination", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["num_optimal_up_to_relabeling"] == 126_126
        assert report["num_optimal"] == 6 * 126_126
        assert peak < 6 * 2 ** 20

    def test_census_past_the_tie_budget(self, tmp_path, capsys,
                                        monkeypatch):
        # 35 tied halvings of 8 inputs, 280 entries: at a budget of the 128
        # partitions a second scan gives the same files
        space = InputSpace.uniform(np.arange(8.0)[:, None])
        self.optimize(tmp_path / "held", space, "discrimination", 2)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 128)
        report = self.optimize(tmp_path / "rescan", space, "discrimination",
                               2)
        assert report["num_optimal_up_to_relabeling"] == 35
        for name in ("protocol.csv", "trace.csv", "result.json"):
            assert (tmp_path / "held" / name).read_bytes() \
                == (tmp_path / "rescan" / name).read_bytes()

    def test_every_reconstruction_optimum_consistent(self, tmp_path, capsys):
        rng = rng_for("optima-census")
        for trial in range(8):
            space = random_space(rng, n_max=7, dim_max=2)
            k = int(rng.integers(2, 4))
            report = self.optimize(tmp_path / str(trial), space,
                                   "reconstruction", k)
            assert report["num_optimal_semantically_consistent"] \
                == report["num_optimal_up_to_relabeling"] >= 1

    def test_antipodal_instance_has_inconsistent_discrimination_optima(
            self, tmp_path, capsys):
        mags = np.array([3.0, 2.5, 1.5, 0.75])
        space = InputSpace.uniform(np.ravel(np.column_stack([mags, -mags])))
        report = self.optimize(tmp_path, space, "discrimination", 4)
        assert report["num_optimal_semantically_consistent"] \
            < report["num_optimal_up_to_relabeling"]
        split = balanced_partition(space, 4, "adversarial-antipodal")
        partitions = exhaustive_search(
            space, 4, GameSpec("discrimination", d=2)).partitions
        assert first_appearance(split.assignment) \
            in {tuple(row) for row in partitions.tolist()}


# cells that are valid in some column of some file, and cells that are not
_CELLS = st.sampled_from(["0", "1", "2", "5", "-1", "0.5", "0.25", "1e308",
                          "nan", "inf", "", " ", "x", "01", "0-1", "1-", "-",
                          "a,b", '"'])


@st.composite
def _input_files(draw):
    """A well-formed input space CSV, with or without a label column, and a
    protocol CSV on the same inputs, then up to three edits of either: a
    cell replaced, a row dropped or repeated, or a cell appended."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.sampled_from(["a", "b"]), min_size=n,
                           max_size=n) | st.just([]))
    tables = [
        [["id", "x0", "weight"] + ["color"] * bool(labels)] + [
            [str(i), draw(st.sampled_from(["0", "1", "-2", "0.5"])),
             repr(1.0 / n)] + labels[i:i + 1] for i in range(n)],
        [["id", "message"]] + [
            [str(i), draw(st.sampled_from(["0", "1", "2", "10", "01"]))]
            for i in range(n)]]
    for _ in range(draw(st.integers(0, 3))):
        table = draw(st.sampled_from(tables))
        if not table:
            continue
        r = draw(st.integers(0, len(table) - 1))
        edit = draw(st.sampled_from(["cell", "drop", "repeat", "append"]))
        if edit == "cell":
            table[r][draw(st.integers(0, len(table[r]) - 1))] = draw(_CELLS)
        elif edit == "drop":
            del table[r]
        elif edit == "repeat":
            table.insert(r, list(table[r]))
        else:
            table[r].append(draw(_CELLS))
    return ["".join(",".join(row) + "\n" for row in t) for t in tables]


# JSON values that are valid in some place of a receiver file, and values
# that are not (an integer past Python's 4,300-digit limit); the last five
# read as NaN or an infinity
_JSON_VALUES = st.sampled_from(["0", "1", "3", "0.5", "-1", "1e308", "[]",
                                "{}", "true", '"x"', "9" * 4301, "NaN",
                                "Infinity", "-Infinity", "1e999", "null",
                                '"nan"'])
_NON_FINITE = ("NaN", "Infinity", "1e999", "null", '"nan"')


def _render(node) -> str:
    """JSON text of nested dicts and lists whose leaves are JSON text, one
    list item per line."""
    if isinstance(node, dict):
        return "{" + ", ".join(f'"{k}": {_render(v)}'
                               for k, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ",\n".join(map(_render, node)) + "]"
    return node


@st.composite
def _receiver_files(draw):
    """A well-formed receiver JSON on the four inputs of ``space_b``: one
    point per message, or a d=2 table over every (message, candidate pair)
    query, then up to three edits: a value replaced, a row dropped or
    repeated."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rows = [[draw(st.sampled_from(["0.0", "1.5", "3.0"]))]
                for _ in range(k)]
        doc = {"kind": '"reconstruction"', "outputs": rows}
    else:
        rows = [{"message": str(m), "candidates": [str(a), str(b)],
                 "probs": ["0.25", "0.75"]}
                for m in range(k) for a in range(4) for b in range(4)]
        doc = {"kind": '"discrimination"', "d": "2", "num_messages": str(k),
               "rows": rows}
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["value", "drop", "repeat"]))
        if edit == "drop":
            del rows[r]
        elif edit == "repeat":
            rows.insert(r, json.loads(json.dumps(rows[r])))
        elif isinstance(rows[r], list):
            rows[r][0] = draw(_JSON_VALUES)
        else:
            key = draw(st.sampled_from(["message", "candidates", "probs"]))
            if key == "message":
                rows[r][key] = draw(_JSON_VALUES)
            else:
                rows[r][key][draw(st.integers(0, 1))] = draw(_JSON_VALUES)
    return _render(doc)


def _exit_code(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code, argparse's included, and its stderr."""
    err = textio.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(textio.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, err.getvalue()


class TestGeneratedMalformedInputs:
    @settings(max_examples=50, deadline=None)
    @given(files=_input_files(), command=st.sampled_from([
        ["analyze", "--d", "2"], ["metrics"], ["metrics", "--vocab", "2"],
        ["optimize", "--k", "2", "--method", "exhaustive"],
        ["optimize", "--k", "3", "--method", "exhaustive", "--game",
         "discrimination"],
        ["optimize", "--k", "2", "--method", "exhaustive", "--game",
         "supervised"],
        ["optimize", "--k", "2", "--method", "exhaustive", "--game",
         "classification"],
        ["optimize", "--k", "2", "--method", "kmeans"],
        ["optimize", "--k", "2", "--method", "balanced"]]))
    def test_cli_exits_cleanly(self, files, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "space.csv").write_text(files[0])
            (tmp / "protocol.csv").write_text(files[1])
            argv = [*command, "--input", str(tmp / "space.csv"),
                    "--out", str(tmp / "out")]
            if command[0] != "optimize":
                argv += ["--protocol", str(tmp / "protocol.csv")]
            code, err = _exit_code(argv)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    @settings(max_examples=50, deadline=None)
    @given(text=_receiver_files(), command=st.sampled_from([
        ["--def", "5"], ["--def", "6"],
        ["--def", "6", "--game", "discrimination", "--d", "2"]]))
    def test_receiver_json_exits_cleanly(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            io.save_input_space(tmp / "space.csv",
                                InputSpace.uniform(np.arange(4.0)[:, None]))
            (tmp / "receiver.json").write_text(text)
            code, err = _exit_code([
                "verify", *command, "--input", str(tmp / "space.csv"),
                "--receiver", str(tmp / "receiver.json")])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if any(value in text for value in _NON_FINITE):
            assert code == 2, err
