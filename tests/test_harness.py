"""Harness tests: dataset ingestion, cleansing, baselines, benchmark, trace."""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A60, EXPAND_SCHEDULE, NOT_UTF8, STOP_SCHEDULE, UNIFORM4, make_step, synthetic_schedule,
)
from entroduction.backends import ScriptedBackend, SyntheticBackend, SyntheticStep
from entroduction.engine import RunConfig
from entroduction.harness import (
    BaselineMethod,
    BaselineParams,
    DatasetError,
    Method,
    Position,
    TaskInstance,
    TaskKind,
    baseline_step_count,
    clean_answer,
    clean_answer_choice,
    clean_answer_numeric,
    commonsense_params,
    export_chain_summary,
    export_trace,
    extract_gold_answer,
    load_dataset,
    math_params,
    read_trace,
    run_benchmark,
    run_chain_baseline,
    run_tree_baseline,
    summarize_trace,
)
from entroduction.policy import PolicyConfig


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_valid_rows(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "question": "q1", "answer": "4"},
            {"id": "2", "question": "q2", "answer": "5"},
            {"id": "3", "question": "q3", "answer": "6"},
        ])
        tasks = load_dataset(path, TaskKind.NUMERIC_MATH)
        assert len(tasks) == 3
        assert tasks[0] == TaskInstance("1", "q1", "4", TaskKind.NUMERIC_MATH)

    def test_malformed_row_skipped_lenient(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "question": "q1", "answer": "4"},
            {"id": "2", "question": "q2"},
        ])
        with caplog.at_level("WARNING"):
            tasks = load_dataset(path, TaskKind.NUMERIC_MATH)
        assert len(tasks) == 1
        assert any("line 2" in r.message or ":2:" in r.message for r in caplog.records)

    def test_malformed_row_strict(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "question": "q"}])
        with pytest.raises(DatasetError):
            load_dataset(path, TaskKind.NUMERIC_MATH, strict=True)

    @pytest.mark.parametrize("question", ["", "   \n\t"], ids=["empty", "whitespace"])
    def test_empty_question_rejected(self, tmp_path, caplog, question):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "question": "q1", "answer": "4"},
            {"id": "2", "question": question, "answer": "5"},
        ])
        with caplog.at_level("WARNING"):
            tasks = load_dataset(path, TaskKind.NUMERIC_MATH)
        assert [t.id for t in tasks] == ["1"]
        assert any("question must be non-empty" in r.message for r in caplog.records)
        with pytest.raises(DatasetError, match=":2:.*question must be non-empty"):
            load_dataset(path, TaskKind.NUMERIC_MATH, strict=True)

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"id": None, "question": "q2", "answer": "5"}, "null fields: id"),
            ({"id": "2", "question": None, "answer": "5"}, "null fields: question"),
            ({"id": "2", "question": "q2", "answer": None}, "null fields: answer"),
            ({"id": "2", "question": 7, "answer": "7"}, "question must be a string"),
            ({"id": "2", "question": ["q"], "answer": "5"}, "question must be a string"),
            ({"id": "2", "question": "q2", "answer": "A", "options": "ABC"},
             "options must be a list of strings"),
            ({"id": "2", "question": "q2", "answer": "A", "options": 3},
             "options must be a list of strings"),
            ({"id": "2", "question": "q2", "answer": "A", "options": [None]},
             "options must be a list of strings"),
            ({"id": "2", "question": "q2", "answer": float("nan")}, "NaN is not standard JSON"),
            ({"id": "2", "question": "q2", "answer": float("-inf")},
             "-Infinity is not standard JSON"),
        ],
        ids=["null id", "null question", "null answer", "numeric question", "list question",
             "string options", "numeric options", "null option", "NaN answer",
             "-Infinity answer"],
    )
    def test_null_or_non_string_field_rejected(self, tmp_path, caplog, row, message):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "question": "q1", "answer": "4"}, row])
        with caplog.at_level("WARNING"):
            tasks = load_dataset(path, TaskKind.NUMERIC_MATH)
        assert [t.id for t in tasks] == ["1"]
        assert any(message in r.message for r in caplog.records)
        with pytest.raises(DatasetError, match=f":2:.*{message}"):
            load_dataset(path, TaskKind.NUMERIC_MATH, strict=True)

    def test_numeric_answer_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": 3, "question": "q", "answer": 42}])
        assert load_dataset(path, TaskKind.NUMERIC_MATH, strict=True) == [
            TaskInstance("3", "q", "42", TaskKind.NUMERIC_MATH)
        ]

    def test_gold_marker_extraction(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{
            "id": "g1",
            "question": "apples?",
            "answer": "First she buys 3...\nThen 69 more.\n#### 72",
        }])
        tasks = load_dataset(path, TaskKind.NUMERIC_MATH)
        assert tasks[0].gold_answer == "72"

    def test_gold_marker_strips_commas(self):
        assert extract_gold_answer("lots of money #### 1,234") == "1234"
        assert extract_gold_answer("plain") == "plain"

    @pytest.mark.parametrize("kind, answer, gold", [
        (TaskKind.BOOLEAN, True, "yes"),
        (TaskKind.BOOLEAN, False, "no"),
        (TaskKind.BOOLEAN, "Yes", "yes"),
        (TaskKind.BOOLEAN, "False", "no"),
        (TaskKind.BOOLEAN, "no", "no"),
        (TaskKind.BOOLEAN, "It holds.\n#### TRUE", "yes"),
        (TaskKind.NUMERIC_MATH, "1,234", "1234"),
        (TaskKind.NUMERIC_MATH, "so 1,234 #### 1,234", "1234"),
        (TaskKind.NUMERIC_MATH, 8.0, "8"),
        (TaskKind.NUMERIC_MATH, -3.0, "-3"),
        (TaskKind.NUMERIC_MATH, 2.5, "2.5"),
        (TaskKind.NUMERIC_MATH, 42, "42"),
        (TaskKind.NUMERIC_MATH, "18 apples", "18"),
        # Every numeric gold in the one canonical form predictions take.
        (TaskKind.NUMERIC_MATH, "#### 1,000.00", "1000"),
        (TaskKind.NUMERIC_MATH, "8.00", "8"),
        (TaskKind.NUMERIC_MATH, ".5", "0.5"),
        # A choice gold reads as an option letter, through the option's text too.
        (TaskKind.MULTIPLE_CHOICE, "#### B", "B"),
        (TaskKind.MULTIPLE_CHOICE, True, "B"),
    ])
    def test_gold_read_as_predictions_are(self, tmp_path, kind, answer, gold):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "question": "q", "answer": answer, "options": ["x", "True"]}])
        assert load_dataset(path, kind, strict=True)[0].gold_answer == gold

    @pytest.mark.parametrize("answer, options, gold", [
        ("(B)", ["x", "y"], "B"),
        ("y", ["x", "y"], "B"),
        ("#### B", ["x", "y"], "B"),
        ("A", ["Yes", "No"], "A"),
        ("Yes", ["Yes", "No"], "A"),
        ("no", ["Yes", "No"], "B"),
    ])
    def test_choice_gold_reads_as_an_option_letter(self, tmp_path, answer, options, gold):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "question": "q", "answer": answer, "options": options}])
        assert load_dataset(path, TaskKind.MULTIPLE_CHOICE, strict=True)[0].gold_answer == gold

    @pytest.mark.parametrize("kind, answer, message", [
        (TaskKind.BOOLEAN, "maybe", "boolean gold reads as no single answer: 'maybe'"),
        (TaskKind.BOOLEAN, 1, "boolean gold reads as no single answer: 1"),
        (TaskKind.NUMERIC_MATH, True, "numeric gold reads as no single answer: True"),
        (TaskKind.NUMERIC_MATH, False, "numeric gold reads as no single answer: False"),
        (TaskKind.NUMERIC_MATH, "abc", "numeric gold reads as no single answer: 'abc'"),
        # More than one number: neither may score by its last number alone.
        (TaskKind.NUMERIC_MATH, "3/4", "numeric gold reads as no single answer: '3/4'"),
        (TaskKind.NUMERIC_MATH, "1e3", "numeric gold reads as no single answer: '1e3'"),
        (TaskKind.MULTIPLE_CHOICE, "Z", "choice gold reads as no single answer: 'Z'"),
    ])
    def test_unreadable_gold_is_a_malformed_row(self, tmp_path, caplog, kind, answer, message):
        valid = {TaskKind.BOOLEAN: "yes", TaskKind.NUMERIC_MATH: "4", TaskKind.MULTIPLE_CHOICE: "A"}
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "question": "q", "answer": valid[kind], "options": ["x", "y"]},
            {"id": "2", "question": "q", "answer": answer, "options": ["x", "y"]},
        ])
        with caplog.at_level("WARNING"):
            assert [task.id for task in load_dataset(path, kind)] == ["1"]
        assert any(message in r.message for r in caplog.records)
        with pytest.raises(DatasetError, match=f":2: .*{message}"):
            load_dataset(path, kind, strict=True)

    @pytest.mark.parametrize("kind, answer", [
        (TaskKind.NUMERIC_MATH, [7]),
        (TaskKind.NUMERIC_MATH, {"x": "7"}),
        (TaskKind.BOOLEAN, {"x": "yes"}),
    ])
    def test_non_scalar_gold_is_a_malformed_row(self, tmp_path, caplog, kind, answer):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "question": "q", "answer": "4" if kind is TaskKind.NUMERIC_MATH else "yes"},
            {"id": "2", "question": "q", "answer": answer},
        ])
        message = f"answer must be a string or a number, got {answer!r}"
        with caplog.at_level("WARNING"):
            assert [task.id for task in load_dataset(path, kind)] == ["1"]
        assert any(message in r.message for r in caplog.records)
        with pytest.raises(DatasetError, match=":2: "):
            load_dataset(path, kind, strict=True)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_dataset(tmp_path / "missing.jsonl", TaskKind.NUMERIC_MATH)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(DatasetError, match="cannot read dataset"):
            load_dataset(path, TaskKind.NUMERIC_MATH)

    def test_zero_valid_rows(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="no valid rows"):
            load_dataset(path, TaskKind.NUMERIC_MATH)

    def test_options_loaded(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{
            "id": "c1", "question": "where?", "answer": "C",
            "options": ["home", "office", "park"],
        }])
        tasks = load_dataset(path, TaskKind.MULTIPLE_CHOICE)
        assert tasks[0].options == ("home", "office", "park")

    @pytest.mark.parametrize("options", [(), tuple(f"opt{i}" for i in range(11))])
    def test_choice_task_needs_one_to_ten_options(self, options):
        with pytest.raises(ValueError, match="1 to 10 options"):
            TaskInstance("c", "which?", "A", TaskKind.MULTIPLE_CHOICE, options)
        assert TaskInstance("n", "how many?", "4", TaskKind.NUMERIC_MATH, options)

    def test_choice_rows_without_usable_options(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "none", "question": "which?", "answer": "A"},
            {"id": "many", "question": "which?", "answer": "A",
             "options": [f"opt{i}" for i in range(12)]},
            {"id": "ok", "question": "which?", "answer": "A", "options": ["x", "y"]},
        ])
        tasks = load_dataset(path, TaskKind.MULTIPLE_CHOICE)
        assert [task.id for task in tasks] == ["ok"]
        with pytest.raises(DatasetError, match=r"d.jsonl:1: .*1 to 10 options"):
            load_dataset(path, TaskKind.MULTIPLE_CHOICE, strict=True)


NUMERIC_CASES = [
    ("So we get 1,234 apples.", Position.LAST, "1234"),
    ("no digits here", Position.LAST, ""),
    ("3 bags of 4 give 12", Position.FIRST, "3"),
    ("3 bags of 4 give 12", Position.LAST, "12"),
    ("The total is 42.", Position.LAST, "42"),
    ("72", Position.LAST, "72"),
    ("-5 degrees, later -7", Position.LAST, "-7"),
    ("-5 degrees, later -7", Position.FIRST, "-5"),
    ("price rose to $2,500.75 today", Position.LAST, "2500.75"),
    ("1,000,000", Position.LAST, "1000000"),
    ("about 3.5 or maybe 3.25", Position.FIRST, "3.5"),
    ("about 3.5 or maybe 3.25", Position.LAST, "3.25"),
    ("answer: 0", Position.LAST, "0"),
    ("7 then 8 then 9", Position.LAST, "9"),
    ("12,34", Position.LAST, "1234"),
    ("x = -0.5", Position.LAST, "-0.5"),
    ("", Position.LAST, ""),
    ("only words, commas, and dots.", Position.FIRST, ""),
    ("step 2: 15 - 3 = 12", Position.LAST, "12"),
    ("1,234", Position.FIRST, "1234"),
    # One canonical form, from the written digits alone: nothing is rounded.
    ("The answer is 8.0", Position.LAST, "8"),
    ("1000.00", Position.LAST, "1000"),
    ("it is .5", Position.LAST, "0.5"),
    ("x = -.25", Position.LAST, "-0.25"),
    ("-0", Position.LAST, "0"),
    ("-0.00", Position.LAST, "0"),
    ("007", Position.LAST, "7"),
    ("00.50 then 0.10", Position.FIRST, "0.5"),
    ("0.000000000000000000001", Position.LAST, "0.000000000000000000001"),
    ("12345678901234567890.10", Position.LAST, "12345678901234567890.1"),
    # A point that follows a digit starts no number.
    ("3.5.1", Position.LAST, "1"),
    ("3.5.1", Position.FIRST, "3.5"),
]


class TestNumericCleansing:
    @pytest.mark.parametrize("pred,position,expected", NUMERIC_CASES)
    def test_table(self, pred, position, expected):
        assert clean_answer_numeric(pred, position) == expected

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        for position in Position:
            once = clean_answer_numeric(text, position)
            assert clean_answer_numeric(once, position) == once

    def test_numeric_answer_keeps_its_last_number(self):
        assert clean_answer("5 because 2+3", TaskKind.NUMERIC_MATH) == "3"
        assert clean_answer("2+3 gives 5", TaskKind.NUMERIC_MATH) == "5"


class TestChoiceCleansing:
    OPTIONS = ["apple", "banana", "park", "office", "sea"]

    def test_paren_letter(self):
        assert clean_answer_choice("The answer is (B)", self.OPTIONS) == "B"

    def test_bare_letter(self):
        assert clean_answer_choice("I pick D", self.OPTIONS) == "D"

    def test_substring_match(self):
        assert clean_answer_choice("definitely the park", self.OPTIONS) == "C"

    def test_no_match(self):
        assert clean_answer_choice("hard to say", self.OPTIONS) == ""

    def test_boolean_normalization(self):
        # Yes/no options are options like any other: read as their letters.
        assert clean_answer_choice("Yes, because...", ["yes", "no"]) == "A"
        assert clean_answer_choice("Definitely not. No.", ["yes", "no"]) == "B"
        assert clean_answer_choice("It is true.", ["yes", "no"]) == ""

    def test_boolean_task_kind(self):
        assert clean_answer("Yes, because...", TaskKind.BOOLEAN) == "yes"
        assert clean_answer("false premise", TaskKind.BOOLEAN) == "no"
        assert clean_answer("maybe", TaskKind.BOOLEAN) == ""

    def test_requires_options(self):
        with pytest.raises(ValueError):
            clean_answer_choice("x", [])

    def test_rejects_more_options_than_labels(self):
        options = [f"opt{i}" for i in range(12)]
        with pytest.raises(ValueError, match="at most 10 options"):
            clean_answer_choice("pick opt11", options)
        assert clean_answer_choice("pick opt9", options[:10]) == "J"

    def test_dispatch(self):
        assert clean_answer("got 7", TaskKind.NUMERIC_MATH) == "7"
        assert clean_answer("(A)", TaskKind.MULTIPLE_CHOICE, self.OPTIONS) == "A"


class TestBaselineAccounting:
    def test_math_configs(self):
        assert baseline_step_count(BaselineMethod.COT, math_params(BaselineMethod.COT)) == 8
        assert baseline_step_count(BaselineMethod.COT_SC, math_params(BaselineMethod.COT_SC)) == 24
        assert baseline_step_count(BaselineMethod.TOT, math_params(BaselineMethod.TOT)) == 121

    def test_commonsense_configs(self):
        assert baseline_step_count(BaselineMethod.COT, commonsense_params(BaselineMethod.COT)) == 5
        assert baseline_step_count(BaselineMethod.COT_SC, commonsense_params(BaselineMethod.COT_SC)) == 15
        assert baseline_step_count(BaselineMethod.TOT, commonsense_params(BaselineMethod.TOT)) == 121

    def test_one_method_enum_and_one_default_shape(self):
        assert BaselineMethod is Method
        assert BaselineParams() == BaselineParams(steps=8, chains=3, branching=3, layers=5)
        assert math_params(Method.COT_SC) == math_params(Method.TOT) == BaselineParams()
        with pytest.raises(ValueError, match="no fixed step count"):
            baseline_step_count(Method.ENTRODUCTION, BaselineParams())

    @pytest.mark.parametrize("n_chains", [0, -1])
    def test_chain_count_below_one_rejected(self, n_chains):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4)])
        with pytest.raises(ValueError, match="baseline parameters must be >= 1"):
            run_chain_baseline("q", BaselineParams(), backend, n_chains=n_chains)

    def test_tree_count_formula(self):
        assert baseline_step_count(BaselineMethod.TOT, BaselineParams(branching=2, layers=3)) == 7
        assert baseline_step_count(BaselineMethod.TOT, BaselineParams(branching=1, layers=4)) == 4

    def test_chain_run_matches_accounting(self):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4)])
        params = BaselineParams(steps=8, chains=1)
        outcome = run_chain_baseline("q", params, backend, n_chains=1)
        assert outcome.steps_generated == 8
        assert len(outcome.answers) == 1

    def test_consistency_run_matches_accounting(self):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4)])
        params = BaselineParams(steps=8, chains=3)
        outcome = run_chain_baseline("q", params, backend)
        assert outcome.steps_generated == 24
        assert len(outcome.answers) == 3

    def test_tree_run_matches_accounting_small(self):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4)])
        params = BaselineParams(branching=2, layers=3)
        outcome = run_tree_baseline("q", params, backend)
        assert outcome.steps_generated == 7
        assert len(outcome.answers) == 4  # leaves of a binary tree, depth 2

    def test_tree_run_matches_accounting_full(self):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4)])
        params = BaselineParams(branching=3, layers=5)
        outcome = run_tree_baseline("q", params, backend)
        assert outcome.steps_generated == 121
        assert len(outcome.answers) == 81


def fixture_tasks(n=3):
    return [
        TaskInstance(id=f"t{i}", question=f"question {i}", gold_answer=str(i),
                     task_kind=TaskKind.NUMERIC_MATH)
        for i in range(1, n + 1)
    ]


def marker_fixture_for(answers, steps_before=1):
    """Scripted steps: ``steps_before`` filler steps then a stated answer,
    per task in order."""
    steps = []
    for answer in answers:
        for i in range(steps_before):
            steps.append(make_step(f"thinking {i}", UNIFORM4))
        steps.append(make_step(f"The answer is {answer}", A60))
    return steps


class TestRunBenchmark:
    def config(self):
        return RunConfig(
            max_steps=4,
            policy=PolicyConfig(epsilon=0.0, seed=0),
            elicit_final_answer=True,
        )

    def test_perfect_fixture_run(self):
        tasks = fixture_tasks(3)
        backend = ScriptedBackend(marker_fixture_for(["1", "2", "3"]))
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        assert report.accuracy == 1.0
        assert [r.steps for r in report.records] == [2, 2, 2]
        assert report.mean_steps == 2.0

    def test_mixed_accuracy(self):
        tasks = fixture_tasks(4)
        backend = ScriptedBackend(marker_fixture_for(["1", "2", "3", "999"]))
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        assert report.accuracy == 0.75
        assert report.records[3].predicted == "999"
        assert not report.records[3].correct

    def test_gold_and_prediction_compare_as_numbers(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "question": "how much?", "answer": "#### 1,000.00"}])
        tasks = load_dataset(path, TaskKind.NUMERIC_MATH, strict=True)
        backend = ScriptedBackend([make_step("The answer is 1000", A60)])
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        assert (report.records[0].predicted, report.accuracy) == ("1000", 1.0)

    def test_yes_no_options_score_by_letter(self):
        task = TaskInstance("c1", "is it?", "A", TaskKind.MULTIPLE_CHOICE, ("Yes", "No"))
        backend = ScriptedBackend([make_step("The answer is yes", A60)])
        report = run_benchmark(Method.ENTRODUCTION, [task], backend, run_config=self.config())
        assert (report.records[0].predicted, report.accuracy) == ("A", 1.0)

    def test_empty_task_list(self):
        backend = ScriptedBackend([])
        with pytest.raises(ValueError, match="empty task list"):
            run_benchmark(Method.ENTRODUCTION, [], backend)

    def test_backend_failure_recorded_and_run_continues(self):
        tasks = fixture_tasks(3)
        # Only enough fixture for the first two tasks.
        backend = ScriptedBackend(marker_fixture_for(["1", "2"]))
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        assert report.records[0].correct and report.records[1].correct
        failed = report.records[2]
        assert not failed.correct
        assert failed.error is not None
        assert report.accuracy == pytest.approx(2 / 3)

    @pytest.mark.parametrize("method", [Method.ENTRODUCTION, Method.TOT])
    def test_failed_task_keeps_its_committed_work(self, method):
        # Two scripted steps: the adaptive run fails on its third step, the
        # tree on its second child, before any answer is elicited. The root's
        # two children share one key, so the second one's failure fails the
        # first one's work too, and the tree keeps only its root.
        backend = ScriptedBackend([make_step("thinking", UNIFORM4), make_step("more", UNIFORM4)])
        report = run_benchmark(
            method, fixture_tasks(1), backend, run_config=RunConfig(max_steps=5),
            params=BaselineParams(branching=2, layers=2),
        )
        record = report.records[0]
        kept = 2 if method is Method.ENTRODUCTION else 1
        assert (record.steps, record.chains, record.calls, record.error) == (
            kept, 1, kept, "fixture exhausted after 2 steps"
        )
        assert (record.predicted, report.mean_steps, report.mean_calls) == ("", kept, kept)

    def test_aborted_run_reaches_on_result(self):
        # One scripted step for a three-step budget: the run aborts after
        # its first step, and its partial trace is still exported.
        backend = ScriptedBackend([make_step("thinking", UNIFORM4)])
        sink = io.StringIO()
        report = run_benchmark(
            Method.ENTRODUCTION, fixture_tasks(1), backend,
            run_config=RunConfig(max_steps=3, policy=PolicyConfig(epsilon=0.0, seed=0)),
            on_result=lambda task, result: export_trace(result, sink, task_id=task.id),
        )
        assert report.records[0].error is not None
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["task_id"] for line in lines] == ["t1"]

    def test_accuracy_consistent_with_records(self):
        tasks = fixture_tasks(4)
        backend = ScriptedBackend(marker_fixture_for(["1", "0", "3", "0"]))
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        recomputed = sum(r.correct for r in report.records) / len(report.records)
        assert abs(report.accuracy - recomputed) <= 1e-12

    def test_report_roundtrip(self):
        tasks = fixture_tasks(2)
        backend = ScriptedBackend(marker_fixture_for(["1", "2"]))
        report = run_benchmark(Method.ENTRODUCTION, tasks, backend, run_config=self.config())
        data = json.loads(report.to_json())
        assert data["accuracy"] == 1.0
        assert len(data["records"]) == 2

    def test_baseline_method_via_benchmark(self):
        tasks = fixture_tasks(2)
        backend = SyntheticBackend(
            [SyntheticStep(logprobs=UNIFORM4, text="The answer is 1")]
        )
        report = run_benchmark(
            Method.COT, tasks, backend, params=BaselineParams(steps=3, chains=1)
        )
        assert [r.steps for r in report.records] == [3, 3]
        assert report.records[0].correct  # gold "1" matches
        assert not report.records[1].correct

    def test_default_shape_is_the_cli_default(self):
        backend = SyntheticBackend([SyntheticStep(logprobs=UNIFORM4, text="The answer is 1")])
        report = run_benchmark(Method.COT_SC, fixture_tasks(2), backend)
        assert [(r.chains, r.steps) for r in report.records] == [(3, 24), (3, 24)]
        assert report.mean_steps == 24.0

    @pytest.mark.parametrize("method", [Method.TOT, Method.COT_SC])
    def test_baselines_honour_run_config(self, method):
        requests = []

        class RecordingBackend(SyntheticBackend):
            def generate_step(self, request):
                requests.append(request)
                return super().generate_step(request)

        backend = RecordingBackend([SyntheticStep(logprobs=UNIFORM4, text="thinking")])
        report = run_benchmark(
            method, fixture_tasks(1), backend,
            run_config=RunConfig(temperature=0.2, max_tokens=64),
            params=BaselineParams(steps=2, chains=2, branching=2, layers=2),
        )
        steps = [r for r in requests if r.task == "question 1"]
        conclusions = [r for r in requests if r.task != "question 1"]
        assert steps and conclusions
        assert report.records[0].calls == report.mean_calls == len(requests)
        assert {(r.temperature, r.max_tokens) for r in requests} == {(0.2, 64)}

    @pytest.mark.parametrize("kind, golds, answers", [
        (TaskKind.BOOLEAN, [True, "No", "yes"], ["yes", "no", "yes"]),
        (TaskKind.NUMERIC_MATH, ["1,234", 8.0, "#### 2,000"], ["1,234", "8", "2000"]),
    ])
    def test_golds_score_as_predictions_read(self, tmp_path, kind, golds, answers):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": str(i), "question": f"q{i}", "answer": gold} for i, gold in enumerate(golds)
        ])
        backend = ScriptedBackend(marker_fixture_for(answers))
        report = run_benchmark(
            Method.ENTRODUCTION, load_dataset(path, kind, strict=True), backend,
            run_config=self.config(),
        )
        assert report.accuracy == 1.0, report.records

    def test_choice_benchmark(self):
        task = TaskInstance(
            id="c", question="where?", gold_answer="C",
            task_kind=TaskKind.MULTIPLE_CHOICE, options=("home", "office", "park"),
        )
        backend = ScriptedBackend(marker_fixture_for(["the park"]))
        report = run_benchmark(Method.ENTRODUCTION, [task], backend, run_config=self.config())
        assert report.records[0].predicted == "C"
        assert report.accuracy == 1.0


class TestTraceExport:
    def run_simple(self, schedule=None, max_steps=3):
        backend = SyntheticBackend(
            synthetic_schedule(schedule or [UNIFORM4])
        )
        config = RunConfig(max_steps=max_steps, policy=PolicyConfig(epsilon=0.0),
                           elicit_final_answer=False)
        from entroduction.engine import run_task

        return run_task("trace me", config, backend)

    def test_line_per_event(self):
        result = self.run_simple()
        sink = io.StringIO()
        export_trace(result, sink, task_id="T1")
        lines = [l for l in sink.getvalue().splitlines() if l]
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["task_id"] == "T1"
        assert first["j"] == 1
        assert first["executed"] == "forced_deepen"

    @staticmethod
    def export_to(path, export, result):
        with open(path, "w", encoding="utf-8") as handle:
            export(result, handle)
        return path

    def test_roundtrip_exact_floats(self, tmp_path):
        result = self.run_simple(schedule=EXPAND_SCHEDULE, max_steps=4)
        rows = read_trace(self.export_to(tmp_path / "trace.jsonl", export_trace, result))
        assert len(rows) == len(result.trace)
        for row, event in zip(rows, result.trace):
            assert row["entropy"] == event.metrics.entropy_bits
            assert row["var_entropy"] == event.metrics.variance_entropy
            assert row["norm_entropy"] == event.metrics.normalized_entropy
            if event.state is None:
                assert row["dH"] is None
            else:
                assert row["dH"] == event.state.delta_entropy
                assert row["dVar"] == event.state.delta_variance

    def test_expand_produces_two_events_same_step(self, tmp_path):
        result = self.run_simple(schedule=EXPAND_SCHEDULE, max_steps=3)
        rows = read_trace(self.export_to(tmp_path / "trace.jsonl", export_trace, result))
        forks = [r for r in rows if r["executed"] == "expand"]
        assert len(forks) == 2
        assert {r["chain_id"] for r in forks} == {0, 1}
        assert {r["j"] for r in forks} == {3}

    def test_chain_summary_csv(self, tmp_path):
        result = self.run_simple(schedule=EXPAND_SCHEDULE, max_steps=3)
        path = self.export_to(tmp_path / "chains.csv", export_chain_summary, result)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + two chains
        assert lines[0].startswith("chain_id,")

    @pytest.mark.parametrize("steps, stop_k, statuses", [
        ([SyntheticStep(logprobs=UNIFORM4, text="think"),
          SyntheticStep(logprobs=A60, text="The answer is 4")], 1, ["answer_marker"]),
        (synthetic_schedule(STOP_SCHEDULE), 1, ["stop"]),
        (synthetic_schedule(STOP_SCHEDULE), 2, ["stop_grace_exhausted"]),
        (synthetic_schedule(EXPAND_SCHEDULE), 1, ["budget", "budget"]),
        ([make_step("one", UNIFORM4)], 1, ["aborted"]),  # the fixture runs out
    ], ids=["answer", "stop", "grace", "budget", "backend error"])
    def test_chain_summary_status_says_why_each_chain_ended(
        self, tmp_path, steps, stop_k, statuses
    ):
        from entroduction.engine import run_task

        scripted = not isinstance(steps[0], SyntheticStep)
        backend = ScriptedBackend(steps) if scripted else SyntheticBackend(steps)
        config = RunConfig(max_steps=4, elicit_final_answer=False,
                           policy=PolicyConfig(epsilon=0.0, stop_k=stop_k))
        result = run_task("q", config, backend)
        path = self.export_to(tmp_path / "chains.csv", export_chain_summary, result)
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [row[2] for row in rows] == statuses

    def test_summarize(self):
        result = self.run_simple()
        sink = io.StringIO()
        export_trace(result, sink)
        sink.seek(0)
        summary = summarize_trace(read_trace(sink))
        assert summary["events"] == 3
        assert summary["chains"] == 1
        assert summary["max_step"] == 3

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("[1, 2]", "bad trace line 3: expected a JSON object, got list"),
            ('{"a": 1}', "bad trace line 3: missing fields chain_id, executed, entropy, j"),
            ('{"chain_id": 0, "executed": "deepen", "j": 1}',
             "bad trace line 3: missing fields entropy"),
            ("not json", "bad trace line 3: Expecting value"),
            ('{"chain_id": 0, "executed": "deepen", "entropy": Infinity, "j": 1}',
             "bad trace line 3: Infinity is not standard JSON"),
        ],
    )
    def test_bad_trace_line(self, bad, message):
        sink = io.StringIO()
        export_trace(self.run_simple(max_steps=1), sink)
        sink.write("\n" + bad + "\n")
        sink.seek(0)
        with pytest.raises(DatasetError) as raised:
            read_trace(sink)
        assert str(raised.value).startswith(message)

    def test_unreadable_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(DatasetError, match="cannot read"):
            read_trace(path)
        with pytest.raises(DatasetError, match="cannot read"):
            read_trace(tmp_path / "missing.jsonl")
