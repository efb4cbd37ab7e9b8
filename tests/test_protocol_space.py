"""Every interleaving of the four agents, searched exhaustively.

An explicit-state search in the manner of SPIN (Holzmann, "The model
checker SPIN", IEEE TSE 23(5), 1997): from the state after the
orchestrator's kickoff, every enabled transition is taken, and each
distinct state is expanded once. A state is the agents' states, one FIFO
queue of messages per (sender, receiver) pair, which is what a fixed
latency per link gives, and each agent's pending work item. Deliveries on
different channels and the ends of work items interleave in every order.
Messages are routed through the compiled protocol's routes. A checkpoint
comes back at 4,096 bytes, any other work item as it went out. There are
no timers and no faults.
"""

import pytest

from edgemig import agents as ag
from edgemig.bus import BusMessage
from edgemig.model import StrategyKind

CHECKPOINTS = (ag.WorkKind.ROUND_CHECKPOINT, ag.WorkKind.STOP_CHECKPOINT)
IDS = dict(zip(ag.Role, ("src", "dst", "cli", "orc")))


def _key(states, channels, work):
    """A hashable image of a search state."""
    return (tuple((s.phase, s.pos, s.image_bytes, s.diagnostic,
                   tuple((m.kind, m.topic) for m in s.held))
                  for s in states.values()),
            tuple(sorted((pair, tuple((m.kind, m.topic, m.payload_bytes)
                                      for m in queue))
                         for pair, queue in channels.items() if queue)),
            tuple(sorted(work.items())))


def _search(info):
    """Every end state reachable from the kickoff, and the number of
    distinct states."""
    routes = ag.compile_protocol(info).routes
    rows = {(IDS[row.sender], row.kind, row.topic)
            for row in ag.clean_run(info)}
    states = {aid: ag.idle_agent(role, aid) for role, aid in IDS.items()}
    states["orc"] = ag.AgentState(ag.Role.ORCHESTRATOR, "orc", info=info)

    def step(states, channels, work, agent_id, event):
        states, channels, work = dict(states), dict(channels), dict(work)
        states[agent_id], actions = ag.advance(states[agent_id], event)
        for action in actions:
            if type(action) is BusMessage:
                assert (agent_id, action.kind, action.topic) in rows
                for receiver in routes[action.kind, action.topic]:
                    pair = (agent_id, receiver)
                    channels[pair] = (*channels.get(pair, ()), action)
            else:
                assert type(action) is ag.Work
                assert agent_id not in work, "two work items at once"
                work[agent_id] = action
        return states, channels, work

    start = step(states, {}, {}, "orc", ag.Kickoff())
    seen, frontier, ends = {_key(*start)}, [start], []
    while frontier:
        states, channels, work = frontier.pop()
        # Each move: the agent, its event, and the channels and work left.
        moves = [(pair[1], queue[0], {**channels, pair: queue[1:]}, work)
                 for pair, queue in channels.items() if queue]
        moves += [(aid, ag.Work(item.kind, 4096.0, item.round)
                   if item.kind in CHECKPOINTS else item, channels,
                   {other: w for other, w in work.items() if other != aid})
                  for aid, item in work.items()]
        if not moves:
            ends.append(states)
        for agent_id, event, left, pending in moves:
            after = step(states, left, pending, agent_id, event)
            if (key := _key(*after)) not in seen:
                seen.add(key)
                frontier.append(after)
    return ends, len(seen)


# Per case, the distinct states: each pre-copy round adds twelve.
@pytest.mark.parametrize("strategy,iterations,count", [
    (StrategyKind.COLD, 0, 46),
    (StrategyKind.PRE_COPY, 0, 54),
    *((StrategyKind.ITERATIVE_PRE_COPY, i, 54 + 12 * i) for i in range(1, 5)),
])
def test_every_interleaving_ends_with_every_agent_done(strategy, iterations,
                                                       count):
    info = ag.TaskInfo("t1", "src", "dst", "cli", "orc", strategy,
                       iterations, "netns:t1")
    ends, seen = _search(info)
    assert seen == count
    [end] = ends
    assert {aid: state.phase for aid, state in end.items()} == dict.fromkeys(
        IDS.values(), ag.DONE)
