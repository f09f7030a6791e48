"""Requirements outline: goals, subgoals, and discoverable tasks.

The outline format is line-oriented::

    goal: Characterize a protein family
      task: Collect known family members
      subgoal: Describe domain architecture
        task: Analyze domains in protein sequences
        task[rank-motifs]: Rank candidate motif instances

``goal:`` opens a goal, ``subgoal:`` a subgoal of the current goal, and
``task:`` attaches to the innermost open scope, so a task written after
a subgoal belongs to it: indentation is cosmetic.  Tasks may carry an
explicit id in brackets; tasks without one are numbered t1, t2, ... in
file order.  ``#`` lines and blanks are skipped.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

log = logging.getLogger(__name__)

_LINE = re.compile(r"^(goal|subgoal|task)(?:\[(?P<id>[^\]]+)\])?\s*:\s*(?P<text>.*)$")


@dataclass(frozen=True)
class TaskRequirement:
    id: str
    description: str

    def __post_init__(self) -> None:
        for key in ("id", "description"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"field {key!r} must be a string")
        if not self.id.strip() or not self.description.strip():
            raise ValueError("task id and description must be non-empty")


@dataclass(frozen=True)
class Subgoal:
    name: str
    tasks: tuple[TaskRequirement, ...] = ()


@dataclass(frozen=True)
class Goal:
    """A goal with its children in original file order."""

    name: str
    items: tuple[Union[Subgoal, TaskRequirement], ...] = ()

    @property
    def subgoals(self) -> tuple[Subgoal, ...]:
        return tuple(i for i in self.items if isinstance(i, Subgoal))

    @property
    def tasks(self) -> tuple[TaskRequirement, ...]:
        """Direct tasks only; subgoal tasks live on the subgoal."""
        return tuple(i for i in self.items if isinstance(i, TaskRequirement))


@dataclass(frozen=True)
class RequirementsModel:
    goals: tuple[Goal, ...] = ()


def tasks(model: RequirementsModel) -> list[TaskRequirement]:
    """All tasks of the model, depth-first in file order."""
    found: list[TaskRequirement] = []
    for goal in model.goals:
        for item in goal.items:
            if isinstance(item, TaskRequirement):
                found.append(item)
            else:
                found.extend(item.tasks)
    return found


def parse_requirements(path: str | Path) -> RequirementsModel:
    """Parse an outline file into a requirements model.

    A task outside any goal, an unknown directive, or a duplicate task id
    is a parse error naming the line.  An empty file yields an empty
    model with a warning.
    """
    path = Path(path)
    goals: list[tuple[str, list]] = []  # (name, items); items hold subgoal lists
    current_subgoal: list | None = None  # (name, tasks) cell inside items
    auto_counter = 0
    seen_ids: set[str] = set()
    try:
        content = path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc
    for lineno, line in enumerate(content.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parsed = _LINE.match(stripped)
        if parsed is None:
            raise ValueError(
                f"{path}: line {lineno}: expected 'goal:', 'subgoal:' or 'task:'"
            )
        kind, text = parsed.group(1), parsed.group("text").strip()
        explicit_id = parsed.group("id")
        if explicit_id is not None and kind != "task":
            raise ValueError(f"{path}: line {lineno}: only tasks take an [id]")
        if not text:
            raise ValueError(f"{path}: line {lineno}: {kind} needs a description")
        if kind == "goal":
            goals.append((text, []))
            current_subgoal = None
        elif kind == "subgoal":
            if not goals:
                raise ValueError(f"{path}: line {lineno}: subgoal outside any goal")
            current_subgoal = [text, []]
            goals[-1][1].append(current_subgoal)
        else:
            if not goals:
                raise ValueError(f"{path}: line {lineno}: task outside any goal")
            if explicit_id is None:
                auto_counter += 1
                task_id = f"t{auto_counter}"
            else:
                task_id = explicit_id.strip()
            if task_id in seen_ids:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate task id {task_id!r}"
                )
            seen_ids.add(task_id)
            task = TaskRequirement(task_id, text)
            if current_subgoal is not None:
                current_subgoal[1].append(task)
            else:
                goals[-1][1].append(task)
    if not goals:
        log.warning("%s: empty requirements file", path)
    return RequirementsModel(
        goals=tuple(
            Goal(
                name=name,
                items=tuple(
                    Subgoal(item[0], tuple(item[1])) if isinstance(item, list) else item
                    for item in items
                ),
            )
            for name, items in goals
        )
    )


def serialize_requirements(model: RequirementsModel) -> str:
    """Render a model back to outline text.

    Task ids are always written explicitly, so parse -> serialize ->
    parse is a fixed point.  A goal's direct task after a subgoal raises
    ``ValueError``, since parsing would move that task into the subgoal.
    """
    lines: list[str] = []
    for goal in model.goals:
        lines.append(f"goal: {goal.name}")
        in_subgoal = False
        for item in goal.items:
            if isinstance(item, Subgoal):
                in_subgoal = True
                lines.append(f"  subgoal: {item.name}")
                for task in item.tasks:
                    lines.append(f"    task[{task.id}]: {task.description}")
            elif in_subgoal:
                raise ValueError(f"goal {goal.name!r}: task {item.id!r} after a subgoal")
            else:
                lines.append(f"  task[{item.id}]: {item.description}")
    return "\n".join(lines) + ("\n" if lines else "")
