"""Goal/subgoal/task outline parsing and serialization."""
from __future__ import annotations

import pytest

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
        # Goal 2 interleaves a direct task and a subgoal, in file order.
        kinds = [type(item).__name__ for item in model.goals[1].items]
        assert kinds == ["TaskRequirement", "Subgoal"]

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

    def test_unknown_directive_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("goal: G\nwibble: What\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_requirements(path)

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

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "r.txt"
        path.write_text("# nothing but a comment\n")
        with caplog.at_level("WARNING"):
            model = parse_requirements(path)
        assert model.goals == ()
        assert "empty" in caplog.text

    def test_tasks_attach_to_open_subgoal(self, tmp_path):
        # Scope comes from the directives, not the indentation: a task
        # after a subgoal joins that subgoal until the next goal line.
        path = tmp_path / "r.txt"
        path.write_text("goal: G\nsubgoal: S\ntask: Inner\ngoal: H\ntask: Direct\n")
        model = parse_requirements(path)
        subgoal = model.goals[0].items[0]
        assert isinstance(subgoal, Subgoal)
        assert [t.description for t in subgoal.tasks] == ["Inner"]
        assert isinstance(model.goals[1].items[0], TaskRequirement)


class TestModelAccessors:
    def test_goal_filters(self):
        goal = Goal(
            name="G",
            items=(
                TaskRequirement("t1", "Direct"),
                Subgoal("S", (TaskRequirement("t2", "Nested"),)),
            ),
        )
        assert [t.id for t in goal.tasks] == ["t1"]
        assert [s.name for s in goal.subgoals] == ["S"]

    def test_tasks_depth_first_order(self):
        model = RequirementsModel(
            goals=(
                Goal(
                    name="G",
                    items=(
                        TaskRequirement("t1", "First"),
                        Subgoal("S", (TaskRequirement("t2", "Second"),)),
                        TaskRequirement("t3", "Third"),
                    ),
                ),
            )
        )
        assert [t.id for t in tasks(model)] == ["t1", "t2", "t3"]

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
            goals=(Goal(name="G", items=(TaskRequirement("t1", "Only"),)),)
        )
        assert "task[t1]: Only" in serialize_requirements(model)

    def test_task_after_subgoal_rejected(self):
        # The outline would attach "After" to S on re-parsing, so the
        # model has no outline form.
        model = RequirementsModel(
            goals=(
                Goal(
                    name="G",
                    items=(
                        Subgoal("S", (TaskRequirement("a", "Inside"),)),
                        TaskRequirement("b", "After"),
                    ),
                ),
            )
        )
        with pytest.raises(ValueError, match="goal 'G'"):
            serialize_requirements(model)
