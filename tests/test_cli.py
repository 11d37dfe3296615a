"""CLI surface tests: subcommands, config file precedence, exit codes."""

from __future__ import annotations

import csv
import json

import pytest
from click.testing import CliRunner

from helpers import A60, NOT_UTF8, UNIFORM4, make_step
from mock_server import ChatCompletionsMock, completion_payload
from entroduction import cli
from entroduction.backends import dump_fixture
from entroduction.cli import main
from entroduction.engine import RunConfig
from entroduction.harness import BaselineParams, Method, TaskKind
from entroduction.policy import PolicyConfig


def write_dataset(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def answer_fixture(path, answers, steps_before=1):
    steps = []
    for answer in answers:
        for i in range(steps_before):
            steps.append(make_step(f"thinking {i}", UNIFORM4))
        steps.append(make_step(f"The answer is {answer}", A60))
    dump_fixture(steps, path)


@pytest.fixture
def calls(monkeypatch):
    """Record the arguments of the calls the CLI makes into the library."""
    seen = {}
    for name in ("run_task", "run_benchmark", "load_dataset"):
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            seen[_name] = (args, kwargs)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return seen


def assert_exit(result, code, message):
    """``code`` and ``message`` through the CLI's own error handling."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output
    assert "Traceback" not in result.output


def assert_config_exit(result):
    """Exit 1 through the CLI's own error handling, with no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output


class TestRunCommand:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        result = CliRunner().invoke(
            main,
            ["run", "what is 2+2?", "--max-steps", "3", "--seed", "1",
             "--metric-mode", "none", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "conclusion:" in result.output
        assert out.exists()
        assert len(out.read_text().strip().splitlines()) == 3

    def test_scripted_run(self, tmp_path):
        fixture = tmp_path / "fixture.jsonl"
        answer_fixture(fixture, ["4"])
        result = CliRunner().invoke(
            main,
            ["run", "what is 2+2?", "--backend", "scripted",
             "--fixture", str(fixture), "--max-steps", "4"],
        )
        assert result.exit_code == 0, result.output
        assert "'4'" in result.output

    def test_missing_fixture_is_config_error(self):
        result = CliRunner().invoke(
            main, ["run", "q", "--backend", "scripted"]
        )
        assert result.exit_code == 1
        assert "configuration error" in result.output

    def test_openai_without_model_is_config_error(self):
        result = CliRunner().invoke(
            main, ["run", "q", "--backend", "openai", "--endpoint", "http://127.0.0.1:1/v1"]
        )
        assert_exit(result, 1, "configuration error: openai backend requires --model")

    def test_summary_out_writes_one_row_per_chain(self, tmp_path):
        out = tmp_path / "chains.csv"
        result = CliRunner().invoke(
            main, ["run", "q", "--max-steps", "8", "--epsilon", "0.9", "--seed", "3",
                   "--summary-out", str(out)],
        )
        assert result.exit_code == 0, result.output
        chains = int(result.output.split("chains: ")[1].split()[0])
        with open(out, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["chain_id", "length", "status", "parent_chain", "shared_prefix",
                          "final_answer", "mean_norm_entropy"]
        assert [int(row[0]) for row in rows] == list(range(chains))

    def test_summary_out_lines_end_in_newline_alone(self, tmp_path):
        out = tmp_path / "chains.csv"
        result = CliRunner().invoke(main, ["run", "q", "--max-steps", "3", "--summary-out", str(out)])
        assert result.exit_code == 0, result.output
        data = out.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")

    def test_unknown_backend_is_config_error(self):
        result = CliRunner().invoke(main, ["run", "q", "--backend", "nope"])
        assert result.exit_code == 1

    def test_backend_failure_exit_code(self, tmp_path):
        fixture = tmp_path / "fixture.jsonl"
        dump_fixture([make_step("one", UNIFORM4)], fixture)
        result = CliRunner().invoke(
            main,
            ["run", "q", "--backend", "scripted", "--fixture", str(fixture),
             "--max-steps", "5"],
        )
        assert result.exit_code == 2
        assert "backend failure" in result.output

    def test_non_object_fixture_token_is_backend_failure(self, tmp_path):
        fixture = tmp_path / "fixture.jsonl"
        line = {"text": "a", "finish_reason": "stop_sequence", "tokens": [5]}
        fixture.write_text(json.dumps(line) + "\n", encoding="utf-8")
        result = CliRunner().invoke(
            main, ["run", "q", "--backend", "scripted", "--fixture", str(fixture)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "backend failure: bad fixture line 1" in result.output


    def test_fixture_with_byte_order_mark(self, tmp_path):
        fixture = tmp_path / "fixture.jsonl"
        dump_fixture([make_step("The answer is 4", A60)], fixture)
        args = ["run", "q", "--backend", "scripted", "--fixture", str(fixture), "--max-steps", "1"]
        assert CliRunner().invoke(main, args).exit_code == 0
        fixture.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "'4'" in result.output


BLANK_STEP = {"text": "", "finish_reason": "stop_sequence",
              "tokens": [{"text": "", "logprob": -0.1}]}


ENDPOINT_SOURCES = ("flag", "config", "ENTRODUCTION_ENDPOINT", "OPENAI_BASE_URL")
KEY_SOURCES = ("flag", "config", "ENTRODUCTION_API_KEY", "OPENAI_API_KEY")
ANSWER_REPLY = completion_payload([("The answer is 4", -0.05)])


class TestHttpSettings:
    """The endpoint and the API key each come from the first source that
    gives one: the flag, the config file, ENTRODUCTION_*, then OPENAI_*."""

    @pytest.fixture(autouse=True)
    def clean_environment(self, monkeypatch, tmp_path):
        for name in cli.ENDPOINT_ENV + cli.API_KEY_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("NETRC", str(tmp_path / "absent"))

    @staticmethod
    def invoke(monkeypatch, tmp_path, endpoint, api_key, command=("run", "q")):
        """Run ``command`` on the openai backend with each setting given by
        the sources in its dict (source -> value)."""
        args = [*command, "--backend", "openai", "--model", "m", "--max-steps", "1"]
        lines = []
        for option, sources in (("endpoint", endpoint), ("api_key", api_key)):
            for source, value in sources.items():
                if source == "flag":
                    args += ["--" + option.replace("_", "-"), value]
                elif source == "config":
                    lines.append(f"{option}={value}\n")
                else:
                    monkeypatch.setenv(source, value)
        if lines:
            config = tmp_path / "http.conf"
            config.write_text("".join(lines), encoding="utf-8")
            args += ["--config", str(config)]
        return CliRunner().invoke(main, args)

    @pytest.mark.parametrize("key_source", KEY_SOURCES + (None,))
    @pytest.mark.parametrize("endpoint_source", ENDPOINT_SOURCES)
    def test_each_source_pair(self, monkeypatch, tmp_path, endpoint_source, key_source):
        api_key = {} if key_source is None else {key_source: "the-key"}
        with ChatCompletionsMock([ANSWER_REPLY]) as mock:
            result = self.invoke(
                monkeypatch, tmp_path, {endpoint_source: mock.endpoint}, api_key
            )
        assert result.exit_code == 0, result.output
        assert mock.paths == ["/v1/chat/completions"]
        expected = None if key_source is None else "Bearer the-key"
        assert [headers.get("Authorization") for headers in mock.headers] == [expected]

    @pytest.mark.parametrize("level", range(len(ENDPOINT_SOURCES)))
    def test_first_source_wins(self, monkeypatch, tmp_path, level):
        """Every source after the winning one holds a decoy value."""
        with ChatCompletionsMock([ANSWER_REPLY]) as mock, \
                ChatCompletionsMock([ANSWER_REPLY]) as decoy:
            endpoint = {source: decoy.endpoint for source in ENDPOINT_SOURCES[level:]}
            api_key = {source: "decoy-key" for source in KEY_SOURCES[level:]}
            endpoint[ENDPOINT_SOURCES[level]] = mock.endpoint
            api_key[KEY_SOURCES[level]] = "the-key"
            result = self.invoke(monkeypatch, tmp_path, endpoint, api_key)
        assert result.exit_code == 0, result.output
        assert decoy.requests == []
        assert [headers.get("Authorization") for headers in mock.headers] == ["Bearer the-key"]

    def test_empty_variable_counts_as_unset(self, monkeypatch, tmp_path):
        with ChatCompletionsMock([ANSWER_REPLY]) as mock:
            result = self.invoke(
                monkeypatch, tmp_path,
                {"ENTRODUCTION_ENDPOINT": "", "OPENAI_BASE_URL": mock.endpoint},
                {"ENTRODUCTION_API_KEY": "", "OPENAI_API_KEY": "the-key"},
            )
        assert result.exit_code == 0, result.output
        assert [headers.get("Authorization") for headers in mock.headers] == ["Bearer the-key"]

    @pytest.mark.parametrize("command", [("run", "q"), ("bench", "--dataset", "d.jsonl")])
    def test_no_endpoint_is_config_error(self, monkeypatch, tmp_path, calls, command):
        keys = {source: "the-key" for source in KEY_SOURCES}
        result = self.invoke(monkeypatch, tmp_path, {}, keys, command)
        assert_exit(
            result, 1, "configuration error: openai backend requires --endpoint, "
            "ENTRODUCTION_ENDPOINT or OPENAI_BASE_URL",
        )
        assert calls == {}

    @pytest.mark.parametrize("endpoint", ["localhost:8000/v1", "localhost/v1", "http://"])
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_endpoint_not_an_http_url_is_config_error(
        self, monkeypatch, tmp_path, calls, command, endpoint
    ):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": str(i), "question": "q", "answer": "4"} for i in (1, 2)])
        args = ("run", "q") if command == "run" else ("bench", "--dataset", str(dataset))
        result = self.invoke(monkeypatch, tmp_path, {"flag": endpoint}, {}, args)
        assert_exit(
            result, 1,
            f"configuration error: endpoint must be an http(s) URL with a host, got {endpoint!r}",
        )
        assert calls == {}

    def test_help_prints_no_key(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ENTRODUCTION_API_KEY", "env-secret")
        config = tmp_path / "http.conf"
        config.write_text("api_key=file-secret\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--help"])
        assert result.exit_code == 0, result.output
        assert "ENTRODUCTION_API_KEY" in result.output
        assert "secret" not in result.output


class TestBlankStep:
    """A blank reply is a backend failure of its run, not a configuration error."""

    def test_run_exits_2(self, tmp_path):
        fixture = tmp_path / "blank.jsonl"
        fixture.write_text(json.dumps(BLANK_STEP) + "\n", encoding="utf-8")
        result = CliRunner().invoke(
            main, ["run", "q", "--backend", "scripted", "--fixture", str(fixture)]
        )
        assert_exit(result, 2, "backend failure: empty step")

    @pytest.mark.parametrize("method", ["entroduction", "tot"])
    def test_bench_records_the_error_on_each_task(self, tmp_path, method):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [
            {"id": "1", "question": "one?", "answer": "1"},
            {"id": "2", "question": "two?", "answer": "2"},
        ])
        fixture = tmp_path / "blank.jsonl"
        fixture.write_text((json.dumps(BLANK_STEP) + "\n") * 2, encoding="utf-8")
        report_path = tmp_path / "report.json"
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--backend", "scripted",
             "--fixture", str(fixture), "--method", method, "--out", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        assert "tasks with backend failures: 2" in result.output
        records = json.loads(report_path.read_text())["records"]
        assert [r["error"] for r in records] == ["empty step", "empty step"]


class TestBenchCommand:
    def test_bench_scripted(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [
            {"id": "1", "question": "one?", "answer": "1"},
            {"id": "2", "question": "two?", "answer": "2"},
        ])
        fixture = tmp_path / "fixture.jsonl"
        answer_fixture(fixture, ["1", "2"])
        report_path = tmp_path / "report.json"
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--backend", "scripted",
             "--fixture", str(fixture), "--epsilon", "0", "--max-steps", "4",
             "--out", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        assert "accuracy: 1.0000" in result.output
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0

    def test_bench_bad_fixture_is_backend_failure(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        fixture = tmp_path / "fixture.jsonl"
        line = {"text": "x", "finish_reason": "stop_sequence",
                "tokens": [{"text": "x", "logprob": -10**400}]}
        fixture.write_text(json.dumps(line) + "\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--backend", "scripted",
             "--fixture", str(fixture)],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "backend failure: bad fixture line 1" in result.output

    def test_bench_dataset_with_byte_order_mark(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text(
            '\ufeff{"id": "1", "question": "what is 2+2?", "answer": "4"}\n', encoding="utf-8"
        )
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset), "--max-steps", "3"])
        assert result.exit_code == 0, result.output
        assert "accuracy:" in result.output

    def test_bench_missing_dataset_flag(self):
        result = CliRunner().invoke(main, ["bench"])
        assert result.exit_code == 1

    def test_bench_dataset_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["bench", "--dataset", str(tmp_path / "missing.jsonl")]
        )
        assert result.exit_code == 3
        assert "dataset error" in result.output

    @pytest.mark.parametrize("options", [None, [], [f"opt{i}" for i in range(11)]])
    def test_choice_row_without_usable_options_is_dataset_error(self, tmp_path, options):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "which?", "answer": "A",
                                 "options": options}])
        result = CliRunner().invoke(
            main, ["bench", "--dataset", str(dataset), "--task-kind", "choice"]
        )
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "dataset error: " in result.output

    def test_bench_openai_backend(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "4"}])
        tokens = [("The answer is 4", -0.05)]
        with ChatCompletionsMock([completion_payload(tokens)]) as mock:
            result = CliRunner().invoke(
                main,
                ["bench", "--dataset", str(dataset), "--backend", "openai",
                 "--endpoint", mock.endpoint, "--model", "m",
                 "--max-steps", "2", "--epsilon", "0"],
            )
        assert result.exit_code == 0, result.output
        assert "accuracy: 1.0000" in result.output

    @pytest.mark.parametrize("status", [401, 404])
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_rejected_key_or_url_ends_the_command(self, tmp_path, command, status):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": str(i), "question": "q?", "answer": "4"} for i in range(3)])
        args = ["run", "q"] if command == "run" else ["bench", "--dataset", str(dataset)]
        with ChatCompletionsMock([(status, {"error": "rejected"})]) as mock:
            result = CliRunner().invoke(
                main, args + ["--backend", "openai", "--endpoint", mock.endpoint, "--model", "m"]
            )
        assert_exit(result, 1, f"configuration error: endpoint rejected request ({status})")
        assert len(mock.requests) == 1

    def test_bad_request_fails_only_its_task(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": str(i), "question": "q?", "answer": "4"} for i in range(3)])
        report_path = tmp_path / "report.json"
        with ChatCompletionsMock([(400, {"error": "prompt too long"})]) as mock:
            result = CliRunner().invoke(
                main,
                ["bench", "--dataset", str(dataset), "--backend", "openai",
                 "--endpoint", mock.endpoint, "--model", "m", "--out", str(report_path)],
            )
        assert result.exit_code == 0, result.output
        assert "tasks with backend failures: 3" in result.output
        # One request per task: a 400 is not retried.
        assert len(mock.requests) == 3
        records = json.loads(report_path.read_text())["records"]
        assert all("endpoint rejected request (400)" in r["error"] for r in records)

    def test_unreadable_gold_is_dataset_error_under_strict(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "which?", "answer": "Z",
                                 "options": ["x", "y"]}])
        result = CliRunner().invoke(
            main, ["bench", "--dataset", str(dataset), "--task-kind", "choice", "--strict"]
        )
        assert_exit(result, 3, "choice gold reads as no single answer: 'Z'")

    @pytest.mark.parametrize("answer", [[7], {"x": "7"}])
    def test_non_scalar_gold_is_dataset_error_under_strict(self, tmp_path, answer):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "q", "answer": answer}])
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset), "--strict"])
        assert_exit(result, 3, f"answer must be a string or a number, got {answer!r}")

    def test_baseline_method(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--method", "cot",
             "--steps", "3"],
        )
        assert result.exit_code == 0, result.output
        # Three steps and one answer elicitation.
        assert "mean steps/task: 3.00" in result.output
        assert "mean calls/task: 4.00" in result.output

    def test_trace_out_collects_runs(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [
            {"id": "a", "question": "one?", "answer": "1"},
            {"id": "b", "question": "two?", "answer": "2"},
        ])
        fixture = tmp_path / "fixture.jsonl"
        answer_fixture(fixture, ["1", "2"])
        trace_out = tmp_path / "runs.jsonl"
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--backend", "scripted",
             "--fixture", str(fixture), "--epsilon", "0", "--max-steps", "4",
             "--trace-out", str(trace_out)],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(l) for l in trace_out.read_text().strip().splitlines()]
        assert len(rows) == 4
        assert {r["task_id"] for r in rows} == {"a", "b"}

    @pytest.mark.parametrize("method", ["cot", "cotsc", "tot"])
    def test_trace_out_with_a_baseline_is_config_error(self, tmp_path, calls, method):
        # Baselines write no trace, so the flag would leave an empty file.
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        trace_out = tmp_path / "runs.jsonl"
        result = CliRunner().invoke(
            main,
            ["bench", "--dataset", str(dataset), "--method", method,
             "--trace-out", str(trace_out)],
        )
        assert_exit(result, 1, "--trace-out records adaptive runs only")
        assert not trace_out.exists()
        assert calls == {}


class TestUnwritableOutput:
    """An output path that cannot be opened is a configuration error, raised
    before any run, so no work is lost to it."""

    @pytest.mark.parametrize(
        "command, flag",
        [("run", "--out"), ("run", "--summary-out"), ("bench", "--out"), ("bench", "--trace-out")],
    )
    def test_exits_before_any_run(self, tmp_path, calls, command, flag):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        args = ["run", "q"] if command == "run" else ["bench", "--dataset", str(dataset)]
        missing = tmp_path / "missing" / "out"
        result = CliRunner().invoke(main, args + ["--max-steps", "3", flag, str(missing)])
        assert_config_exit(result)
        assert f"configuration error: cannot write {missing}" in result.output
        assert "run_task" not in calls and "run_benchmark" not in calls

    def test_trace_reexport(self, tmp_path):
        source = tmp_path / "trace.jsonl"
        CliRunner().invoke(main, ["run", "q", "--max-steps", "3", "--out", str(source)])
        result = CliRunner().invoke(
            main, ["trace", str(source), "--out", str(tmp_path / "missing" / "copy.jsonl")]
        )
        assert_config_exit(result)
        assert "configuration error: cannot write" in result.output


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_steps=2\nseed=5\n# comment\n", encoding="utf-8")
        out = tmp_path / "trace.jsonl"
        result = CliRunner().invoke(
            main,
            ["run", "q", "--config", str(config), "--metric-mode", "none",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 2

    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_steps=2\n", encoding="utf-8")
        out = tmp_path / "trace.jsonl"
        result = CliRunner().invoke(
            main,
            ["run", "q", "--config", str(config), "--max-steps", "4",
             "--metric-mode", "none", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("command, key", [
        (["run", "q"], "max_stpes"),
        # An option of another command is unknown to this one.
        (["run", "q"], "dataset"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, calls, command, key):
        config = tmp_path / "run.conf"
        config.write_text(f"seed=5\n{key}=2\n", encoding="utf-8")
        result = CliRunner().invoke(main, command + ["--config", str(config)])
        assert_config_exit(result)
        assert f"{config}:2: unknown key {key}" in result.output
        assert "run_task" not in calls

    def test_byte_order_mark_is_skipped(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("\ufeffmax_steps=2\n", encoding="utf-8")
        out = tmp_path / "trace.jsonl"
        result = CliRunner().invoke(
            main, ["run", "q", "--config", str(config), "--metric-mode", "none",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 2

    def test_bad_config_line(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("not a pair\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "q", "--config", str(config)])
        assert result.exit_code == 1

    def test_bench_file_values_reach_command(self, tmp_path, calls):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "is it?", "answer": "yes"}])
        config = tmp_path / "bench.conf"
        config.write_text(
            f"expand=off\nmethod=COT\ntask_kind=boolean\ndataset={dataset}\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["bench", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert calls["load_dataset"][0] == (str(dataset), TaskKind.BOOLEAN)
        (method, _, _), kwargs = calls["run_benchmark"]
        assert method is Method.COT
        assert kwargs["run_config"].policy.expand_enabled is False

    def test_flag_overrides_file_value(self, tmp_path, calls):
        config = tmp_path / "run.conf"
        config.write_text("expand=off\nmetric_mode=entropy\n", encoding="utf-8")
        result = CliRunner().invoke(
            main, ["run", "q", "--config", str(config), "--expand"]
        )
        assert result.exit_code == 0, result.output
        policy = calls["run_task"][0][1].policy
        assert policy.expand_enabled is True
        assert policy.metric_mode.value == "entropy"


class TestDefaults:
    def test_no_flags_build_dataclass_defaults(self, tmp_path, calls):
        result = CliRunner().invoke(main, ["run", "q"])
        assert result.exit_code == 0, result.output
        config = calls["run_task"][0][1]
        assert config == RunConfig()
        assert config.policy == PolicyConfig()

        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset)])
        assert result.exit_code == 0, result.output
        (method, _, _), kwargs = calls["run_benchmark"]
        assert method is Method.ENTRODUCTION
        assert kwargs["run_config"] == RunConfig()
        assert kwargs["params"] == BaselineParams()

    def test_bench_baseline_without_shape_flags_runs_the_default_shape(self, tmp_path):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset), "--method", "cotsc"])
        assert result.exit_code == 0, result.output
        # Three chains of eight steps, as run_benchmark runs without params.
        assert "mean steps/task: 24.00" in result.output

    def test_help_shows_dataclass_defaults(self):
        result = CliRunner().invoke(main, ["bench", "--help"])
        assert result.exit_code == 0, result.output
        text = " ".join(result.output.split())
        assert f"Step budget (default {RunConfig().max_steps})" in text
        assert f"Baseline chain count (default {BaselineParams().chains})" in text


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["run", "q", "--max-steps", "abc"],
        ["run", "q", "--metric-mode", "foo"],
        ["run", "q", "--backend", "nope"],
        ["bench", "--dataset", "d.jsonl", "--method", "nope"],
        ["bench"],
        ["nope"],
    ])
    def test_bad_flag_exits_1(self, args):
        assert_config_exit(CliRunner().invoke(main, args))

    @pytest.mark.parametrize("line", ["max_steps=abc", "expand=maybe", "metric_mode=foo"])
    def test_bad_file_value_exits_1(self, tmp_path, line):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "q", "--config", str(config)])
        assert_config_exit(result)

    def test_choices_ignore_case(self, calls):
        result = CliRunner().invoke(main, ["run", "q", "--metric-mode", "NONE"])
        assert result.exit_code == 0, result.output
        assert calls["run_task"][0][1].policy.metric_mode.value == "none"

    @pytest.mark.parametrize("flag", ["--steps", "--chains", "--branching", "--layers"])
    def test_zero_baseline_shape_is_config_error(self, tmp_path, flag):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset), flag, "0"])
        assert_config_exit(result)
        assert "configuration error: baseline parameters must be >= 1" in result.output

    @pytest.mark.parametrize("args,message", [
        (["--epsilon", "2"], "epsilon must be in [0, 1]"),
        (["--schedule", ""], "bad schedule"),
        (["--schedule", "1.5"], "bad schedule"),
        (["--schedule", "0"], "bad schedule"),
        (["--temperature", "-1"], "temperature must be finite and >= 0"),
        (["--temperature", "nan"], "temperature must be finite and >= 0"),
        (["--temperature", "inf"], "temperature must be finite and >= 0"),
        (["--max-steps", "0"], "max_steps must be >= 1"),
        (["--max-chains", "0"], "max_chains must be >= 1"),
    ])
    def test_rejected_setting_is_config_error(self, args, message):
        result = CliRunner().invoke(main, ["run", "q", *args])
        assert_config_exit(result)
        assert f"configuration error: {message}" in result.output

    @pytest.mark.parametrize("args,message", [
        (["--max-tokens", "0"], "max_tokens must be >= 1"),
        (["--temperature", "-1"], "temperature must be finite and >= 0"),
    ])
    def test_rejected_sampling_value_stops_bench_before_any_task(
        self, tmp_path, calls, args, message
    ):
        dataset = tmp_path / "tasks.jsonl"
        write_dataset(dataset, [{"id": "1", "question": "one?", "answer": "1"}])
        result = CliRunner().invoke(main, ["bench", "--dataset", str(dataset), *args])
        assert_config_exit(result)
        assert f"configuration error: {message}" in result.output
        assert not calls

    @pytest.mark.parametrize("task", ["", "   "], ids=["empty", "whitespace"])
    def test_blank_task_is_config_error(self, task):
        result = CliRunner().invoke(main, ["run", task])
        assert_config_exit(result)
        assert "configuration error: empty task" in result.output


class TestTraceCommand:
    def test_summary_and_reexport(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        CliRunner().invoke(
            main,
            ["run", "q", "--max-steps", "3", "--metric-mode", "none",
             "--out", str(out)],
        )
        reexport = tmp_path / "copy.jsonl"
        result = CliRunner().invoke(
            main, ["trace", str(out), "--out", str(reexport)]
        )
        assert result.exit_code == 0, result.output
        assert "events: 3" in result.output
        assert len(reexport.read_text().strip().splitlines()) == 3

    def test_trace_with_byte_order_mark(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        CliRunner().invoke(
            main, ["run", "q", "--max-steps", "3", "--metric-mode", "none", "--out", str(out)]
        )
        out.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        result = CliRunner().invoke(main, ["trace", str(out)])
        assert result.exit_code == 0, result.output
        assert "events: 3" in result.output

    def test_line_separator_inside_a_string(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        row = {"task_id": "a\u2028b", "chain_id": 0, "executed": "deepen", "entropy": 1.5, "j": 1}
        trace.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["trace", str(trace)])
        assert result.exit_code == 0, result.output
        assert "events: 1" in result.output

    def test_missing_trace(self, tmp_path):
        result = CliRunner().invoke(main, ["trace", str(tmp_path / "none.jsonl")])
        assert result.exit_code == 3


class TestUnreadableInputs:
    """A missing or non-UTF-8 input file is a typed error, never a traceback."""

    @pytest.fixture
    def not_utf8(self, tmp_path):
        path = tmp_path / "not_utf8.txt"
        path.write_bytes(NOT_UTF8)
        return str(path)

    def test_dataset(self, not_utf8):
        result = CliRunner().invoke(main, ["bench", "--dataset", not_utf8])
        assert_exit(result, 3, "dataset error: cannot read dataset")

    def test_config_file(self, not_utf8):
        result = CliRunner().invoke(main, ["run", "q", "--config", not_utf8])
        assert_exit(result, 1, "cannot read config file")

    def test_trace(self, not_utf8):
        result = CliRunner().invoke(main, ["trace", not_utf8])
        assert_exit(result, 3, "dataset error: cannot read")

    @pytest.mark.parametrize("command", [["run", "q"], ["bench", "--dataset", "unused.jsonl"]])
    def test_fixture(self, not_utf8, tmp_path, command):
        for fixture in (not_utf8, str(tmp_path / "missing.jsonl")):
            result = CliRunner().invoke(
                main, command + ["--backend", "scripted", "--fixture", fixture]
            )
            assert_exit(result, 1, f"configuration error: cannot read fixture {fixture}")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("[1, 2]", "bad trace line 2: expected a JSON object, got list"),
            ('{"a": 1}', "bad trace line 2: missing fields chain_id, executed, entropy, j"),
            ("{", "bad trace line 2: Expecting property name"),
            ('{"chain_id": 0, "executed": "deepen", "entropy": "x", "j": 1}',
             "bad trace line 2: fields of the wrong type: entropy"),
            # Types that differ from the first line's.
            ('{"chain_id": "0", "executed": "deepen", "entropy": 1.5, "j": 1.0}',
             "bad trace line 2: fields of the wrong type: chain_id, j"),
            ('{"chain_id": 0, "executed": null, "entropy": true, "j": 1}',
             "bad trace line 2: fields of the wrong type: executed, entropy"),
            ('{"chain_id": 0, "executed": "deepen", "entropy": NaN, "j": 1}',
             "bad trace line 2: NaN is not standard JSON"),
        ],
    )
    def test_bad_trace_line(self, tmp_path, bad, message):
        trace = tmp_path / "trace.jsonl"
        CliRunner().invoke(main, ["run", "q", "--max-steps", "1", "--out", str(trace)])
        trace.write_text(trace.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["trace", str(trace)])
        assert_exit(result, 3, f"dataset error: {message}")
