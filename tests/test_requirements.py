"""Goal/subgoal/task outline parsing and serialization."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdisc.cli import main
from semdisc.requirements import (
    Goal,
    RequirementsModel,
    Subgoal,
    TaskRequirement,
    parse_requirements,
    serialize_requirements,
    tasks,
)

from conftest import DATA


class TestParseDemoOutline:
    def test_structure(self):
        model = parse_requirements(DATA / "requirements.txt")
        assert [g.name for g in model.goals] == [
            "Characterize a protein family",
            "Annotate regulatory features",
            "Publish the analysis",
        ]
        # Goal 2 has a direct task and a subgoal.
        goal = model.goals[1]
        assert [t.description for t in goal.tasks] == ["Collect sequences for the target family"]
        assert [s.name for s in goal.subgoals] == ["Find candidate motifs"]

    def test_task_ids_in_file_order(self):
        model = parse_requirements(DATA / "requirements.txt")
        flat = tasks(model)
        assert [t.id for t in flat] == [f"t{i}" for i in range(1, 8)]
        assert flat[0].description == "Analyze domains in protein sequences"


class TestParseRules:
    def test_indentation_is_cosmetic(self, tmp_path):
        indented = tmp_path / "a.txt"
        indented.write_text(
            "goal: G\n  subgoal: S\n    task: One\n"
        )
        flat = tmp_path / "b.txt"
        flat.write_text("goal: G\nsubgoal: S\ntask: One\n")
        assert parse_requirements(indented) == parse_requirements(flat)

    def test_explicit_ids(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\ntask[alpha]: First\ntask: Second\n")
        model = parse_requirements(path)
        assert [t.id for t in tasks(model)] == ["alpha", "t1"]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\ntask[x]: One\ntask[x]: Two\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_requirements(path)

    def test_explicit_id_colliding_with_auto_id_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\ntask: One\ntask[t1]: Two\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_requirements(path)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(b"goal: G\ntask: Align \xff reads\n")
        with pytest.raises(ValueError) as info:
            parse_requirements(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8: ")

    def test_task_outside_goal_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("task: Orphan\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_requirements(path)

    def test_subgoal_outside_goal_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("subgoal: Orphan\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_requirements(path)

    def test_unknown_directive_rejected(self, tmp_path, capsys):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\nwibble: What\n")
        message = f"{path}: line 2: expected 'goal:', 'subgoal:' or 'task:'"
        with pytest.raises(ValueError, match="line 2") as info:
            parse_requirements(path)
        assert str(info.value) == message
        # The CLI reports it as a data error, on one line.
        code = main(["annotate", f"--requirements={path}", f"--lexicon={DATA / 'lexicon.tsv'}"])
        assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")

    def test_id_on_non_task_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal[g1]: G\n")
        with pytest.raises(ValueError, match="only tasks"):
            parse_requirements(path)

    def test_empty_description_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\ntask:\n")
        with pytest.raises(ValueError, match="description"):
            parse_requirements(path)

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("goal:\n", "line 1: field 'name' must be one non-empty line"),
            ("goal: G\nsubgoal:  \n", "line 2: field 'name' must be one non-empty line"),
            ("goal: G\ntask[ ]: x\n", "line 2: field 'id' must be one non-empty line"),
        ],
    )
    def test_constructor_error_names_line(self, tmp_path, text, detail):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            parse_requirements(path)
        assert str(excinfo.value).startswith(f"{path}: {detail}")

    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\r"])
    def test_only_line_feed_ends_a_line(self, tmp_path, char):
        # The character stays in the task, which the model's one-line
        # rule rejects.
        path = tmp_path / "r.txt"
        path.write_bytes(f"goal: G\ntask: one{char}two\n".encode())
        with pytest.raises(ValueError) as excinfo:
            parse_requirements(path)
        assert str(excinfo.value).startswith(
            f"{path}: line 2: field 'description' must be one non-empty line"
        )

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes((DATA / "requirements.txt").read_bytes().replace(b"\n", b"\r\n"))
        assert parse_requirements(path) == parse_requirements(DATA / "requirements.txt")

    def test_leading_bom_is_skipped(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "requirements.txt").read_bytes())
        assert parse_requirements(path) == parse_requirements(DATA / "requirements.txt")

    def test_duplicate_ids_named_together(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\ntask[x]: One\ntask[x]: Two\ntask: Three\ntask[t1]: Four\n")
        with pytest.raises(ValueError) as excinfo:
            parse_requirements(path)
        assert str(excinfo.value) == f"{path}: duplicate task id 'x', 't1'"

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "r.txt"
        path.write_text("# nothing but a comment\n")
        # The CLI reports an outline without tasks; the parser logs nothing.
        with caplog.at_level("DEBUG"):
            model = parse_requirements(path)
        assert model == RequirementsModel()
        assert caplog.records == []

    def test_tasks_attach_to_open_subgoal(self, tmp_path):
        # Scope comes from the directives, not the indentation: a task
        # after a subgoal joins that subgoal until the next goal line.
        path = tmp_path / "r.txt"
        path.write_text("goal: G\nsubgoal: S\ntask: Inner\ngoal: H\ntask: Direct\n")
        model = parse_requirements(path)
        assert model.goals[0].tasks == ()
        assert [t.description for t in model.goals[0].subgoals[0].tasks] == ["Inner"]
        assert [t.description for t in model.goals[1].tasks] == ["Direct"]


class TestModelAccessors:
    def test_goal_filters(self):
        goal = Goal(
            name="G",
            tasks=(TaskRequirement("t1", "Direct"),),
            subgoals=(Subgoal("S", (TaskRequirement("t2", "Nested"),)),),
        )
        assert [t.id for t in goal.tasks] == ["t1"]
        assert [s.name for s in goal.subgoals] == ["S"]

    def test_tasks_depth_first_order(self):
        model = RequirementsModel(
            goals=(
                Goal(
                    name="G",
                    tasks=(TaskRequirement("t1", "First"),),
                    subgoals=(
                        Subgoal("S", (TaskRequirement("t2", "Second"),)),
                        Subgoal("T", (TaskRequirement("t3", "Third"),)),
                    ),
                ),
                Goal(name="H", tasks=(TaskRequirement("t4", "Fourth"),)),
            )
        )
        assert [t.id for t in tasks(model)] == ["t1", "t2", "t3", "t4"]

    def test_blank_task_description_rejected(self):
        with pytest.raises(ValueError):
            TaskRequirement("t1", "   ")

    @pytest.mark.parametrize(
        "task_id, description, field",
        [(5, "x", "id"), ("a", 5, "description"), ("a", None, "description")],
    )
    def test_non_string_task_field_rejected(self, task_id, description, field):
        with pytest.raises(ValueError) as excinfo:
            TaskRequirement(task_id, description)
        assert str(excinfo.value) == f"field {field!r} must be a string"

    # Each model here has no outline form, so a constructor refuses it.
    @pytest.mark.parametrize(
        "make, args, detail",
        [
            (TaskRequirement, ("a]b", "x"), "field 'id' must not contain ']'"),
            (TaskRequirement, ("a", "x\ny"), "field 'description' must be one"),
            (TaskRequirement, ("a", "x\u2028y"), "field 'description' must be one"),
            (TaskRequirement, ("a", "x\x1cy"), "field 'description' must be one"),
            (TaskRequirement, (" a", "x"), "field 'id' must be one"),
            (TaskRequirement, ("a", "x "), "field 'description' must be one"),
            (Goal, ("",), "field 'name' must be one"),
            (Goal, (5,), "field 'name' must be a string"),
            (Subgoal, (None,), "field 'name' must be a string"),
            (Goal, ("G", [TaskRequirement("a", "x")]), "field 'tasks' must be a tuple"),
            (Goal, ("G", (), (Goal("H"),)), "field 'subgoals' must be a tuple of Subgoal"),
            (RequirementsModel, ([Goal("G")],), "field 'goals' must be a tuple"),
            (
                RequirementsModel,
                ((Goal("G", (TaskRequirement("a", "x"), TaskRequirement("a", "y"))),),),
                "duplicate task id 'a'",
            ),
            (TaskRequirement, ("a", "x\ud800"), "field 'description' cannot be encoded"),
        ],
    )
    def test_model_without_outline_form_rejected(self, make, args, detail):
        with pytest.raises(ValueError, match=re.escape(detail)):
            make(*args)


class TestSerialize:
    def test_round_trip_fixed_point(self, tmp_path):
        model = parse_requirements(DATA / "requirements.txt")
        text = serialize_requirements(model)
        rewritten = tmp_path / "rt.txt"
        rewritten.write_text(text)
        again = parse_requirements(rewritten)
        assert again == model
        assert serialize_requirements(again) == text

    def test_serialized_ids_explicit(self):
        model = RequirementsModel(
            goals=(Goal(name="G", tasks=(TaskRequirement("t1", "Only"),)),)
        )
        assert "task[t1]: Only" in serialize_requirements(model)


# Valid lines, and the ids among them that the pool below may repeat.
_LINE = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=8
).map(str.strip).filter(bool)
_POOL_ID = st.sampled_from(["t1", "t2", "rank-motifs"])
# Values no name, id or description may hold.
_WRONG_FIELDS = (
    "a]b", "a\nb", "a\u2028b", "a\rb", "a\x1cb", "a\x85b", " a", "a ", "", "\t", 5, None,
    "a\ud800b",
)
_WRONG_KINDS = (*_WRONG_FIELDS, "a list for a tuple", "a stray int", "nothing")


def _raw_goals(wrong):
    """Goals as nested (name, tasks, subgoals) values for ``_build``, with
    one kind of wrong item from ``_WRONG_KINDS`` in about one place in ten.
    One valid id in ten comes from a small pool, so models repeat ids."""

    def one_in_ten(rare, common, applies=True):
        if not applies:
            return common
        return st.integers(0, 9).flatmap(lambda n: rare if n == 0 else common)

    def children(element):
        items = st.lists(one_in_ten(st.integers(), element, wrong == "a stray int"), max_size=2)
        return one_in_ten(items, items.map(tuple), wrong == "a list for a tuple")

    bad_field = wrong in _WRONG_FIELDS
    text = one_in_ten(st.just(wrong), _LINE, bad_field)
    free_id = _LINE.filter(lambda s: "]" not in s)
    task = st.tuples(one_in_ten(st.just(wrong), one_in_ten(_POOL_ID, free_id), bad_field), text)
    return children(st.tuples(text, children(task), children(st.tuples(text, children(task)))))


def _build(goals) -> RequirementsModel:
    """The model whose fields hold the drawn values; stray items stay as drawn."""

    def kids(raw, make):
        return type(raw)(make(*item) if isinstance(item, tuple) else item for item in raw)

    def subgoal(name, raw_tasks):
        return Subgoal(name, kids(raw_tasks, TaskRequirement))

    def goal(name, raw_tasks, raw_subgoals):
        return Goal(name, kids(raw_tasks, TaskRequirement), kids(raw_subgoals, subgoal))

    return RequirementsModel(kids(goals, goal))


@settings(max_examples=400, deadline=None)
@given(wrong=st.sampled_from(_WRONG_KINDS), data=st.data())
def test_model_rejected_or_round_trips(tmp_path_factory, wrong, data):
    """Whatever the fields hold, construction raises ValueError or the
    model serializes and parses back equal."""
    goals = data.draw(_raw_goals(wrong), label="goals")
    try:
        model = _build(goals)
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "property.txt"
    path.write_text(serialize_requirements(model), "utf-8")
    assert parse_requirements(path) == model
