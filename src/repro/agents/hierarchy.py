"""Agent-hierarchy construction and validation (§3.1, Fig. 7).

"A hierarchy of homogenous agents are used to represent multiple grid
resources. ... Each agent is only aware of neighbouring agents and service
advertisement and discovery requests are only processed among neighbouring
agents, which provides the possibility for scaling over large wide-area
grid architectures."

:func:`wire_hierarchy` connects already-constructed agents into a tree from
a ``child -> parent`` mapping, validating that the result is a single
rooted tree (exactly one head, no cycles, no orphans).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

from repro.agents.agent import Agent
from repro.errors import HierarchyError

__all__ = ["Hierarchy", "wire_hierarchy"]


class Hierarchy:
    """A validated rooted tree of agents."""

    def __init__(self, agents: Mapping[str, Agent], head: Agent) -> None:
        self._agents = dict(agents)
        self._head = head

    @property
    def head(self) -> Agent:
        """The agent at the head of the hierarchy (S1 in the case study)."""
        return self._head

    @property
    def agents(self) -> Dict[str, Agent]:
        """All agents by name (copy)."""
        return dict(self._agents)

    def agent(self, name: str) -> Agent:
        """Look up an agent by name."""
        try:
            return self._agents[name]
        except KeyError:
            raise HierarchyError(f"no agent named {name!r}") from None

    def __len__(self) -> int:
        return len(self._agents)

    def __iter__(self) -> Iterator[Agent]:
        return iter(self._agents.values())

    def depth(self, name: str) -> int:
        """Distance from *name* to the head (head itself is depth 0)."""
        agent = self.agent(name)
        depth = 0
        while agent.parent is not None:
            agent = agent.parent
            depth += 1
            if depth > len(self._agents):
                raise HierarchyError("cycle detected while computing depth")
        return depth

    def start_all(self) -> None:
        """Activate every agent's advertisement strategy."""
        for agent in self._agents.values():
            agent.start()

    def stop_all(self) -> None:
        """Deactivate every agent's advertisement strategy."""
        for agent in self._agents.values():
            agent.stop()

    def leaves(self) -> List[Agent]:
        """Agents with no children, sorted by name."""
        return sorted(
            (a for a in self._agents.values() if not a.children),
            key=lambda a: a.name,
        )

    def rewire(self, child_name: str, new_parent_name: str) -> None:
        """Move *child_name* (and its subtree) under *new_parent_name*.

        The paper's agents are homogeneous and "can be reconfigured with
        different roles at run time" — a role is just the agent's position
        in the tree.  Rewiring takes effect immediately: the next
        advertisement round populates the new neighbourhood, and stale
        registry entries for former neighbours simply stop being consulted
        (discovery only evaluates *current* neighbours).

        Raises
        ------
        HierarchyError
            If the move would detach the head, create a cycle, or
            self-parent.
        """
        child = self.agent(child_name)
        new_parent = self.agent(new_parent_name)
        if child is self._head:
            raise HierarchyError("cannot rewire the hierarchy head")
        if child is new_parent:
            raise HierarchyError(f"{child_name!r} cannot be its own parent")
        # Reject moves under the child's own subtree (would create a cycle).
        cursor: Optional[Agent] = new_parent
        while cursor is not None:
            if cursor is child:
                raise HierarchyError(
                    f"moving {child_name!r} under {new_parent_name!r} "
                    "would create a cycle"
                )
            cursor = cursor.parent
        old_parent = child.parent
        assert old_parent is not None  # only the head has no parent
        old_parent._remove_child(child)  # noqa: SLF001 - wiring
        new_parent._add_child(child)  # noqa: SLF001 - wiring
        child._set_parent(new_parent)  # noqa: SLF001 - wiring


def wire_hierarchy(
    agents: Mapping[str, Agent], parent_of: Mapping[str, Optional[str]]
) -> Hierarchy:
    """Connect *agents* into a tree given each agent's parent name.

    Parameters
    ----------
    agents:
        All agents, keyed by name.
    parent_of:
        ``child name -> parent name``; exactly one entry must map to
        ``None`` (the head).

    Raises
    ------
    HierarchyError
        On missing/extra names, multiple heads, unknown parents, or cycles.
    """
    if set(agents) != set(parent_of):
        raise HierarchyError(
            f"agents and parent_of must cover the same names: "
            f"{sorted(agents)} vs {sorted(parent_of)}"
        )
    heads = [name for name, parent in parent_of.items() if parent is None]
    if len(heads) != 1:
        raise HierarchyError(f"exactly one head required, got {sorted(heads)}")
    for child, parent in parent_of.items():
        if parent is None:
            continue
        if parent not in agents:
            raise HierarchyError(f"{child!r} names unknown parent {parent!r}")
        if parent == child:
            raise HierarchyError(f"{child!r} cannot be its own parent")

    # Cycle check: walk each chain to the head with a step budget.
    for name in parent_of:
        seen = {name}
        cursor = parent_of[name]
        while cursor is not None:
            if cursor in seen:
                raise HierarchyError(f"cycle through {cursor!r}")
            seen.add(cursor)
            cursor = parent_of[cursor]

    for child, parent in parent_of.items():
        if parent is not None:
            agents[child]._set_parent(agents[parent])  # noqa: SLF001 - wiring
            agents[parent]._add_child(agents[child])  # noqa: SLF001 - wiring
    # Grid-wide endpoint→agent directory: the sim's stand-in for dialling
    # an arbitrary address.  Self-healing adoption needs it to reach beyond
    # current neighbour links; routing never consults it.
    directory = {agent.endpoint: agent for agent in agents.values()}
    for agent in agents.values():
        agent.bind_directory(directory)
    return Hierarchy(agents, agents[heads[0]])
