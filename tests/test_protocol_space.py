"""Every interleaving of the four agents, searched exhaustively.

An explicit-state search in the manner of SPIN (Holzmann, "The model
checker SPIN", IEEE TSE 23(5), 1997): from the state after the
orchestrator's kickoff, every enabled transition is taken, and each
distinct state is expanded once. A state is the agents' states, one FIFO
queue of messages per (sender, receiver) pair, which is what a fixed
latency per link gives, each agent's pending work item and whether a
message was lost. Deliveries on different channels and the ends of work
items interleave in every order. Messages are routed through the
compiled protocol's routes. A checkpoint comes back at 4,096 bytes, any
other work item as it went out. In the base mode there are no timers and
no faults. In the drop mode the head of any channel may be lost, once
per run, and once no delivery or work end is left, the watchdog of any
live agent may fire.
"""

import pytest

from edgemig import agents as ag
from edgemig.bus import BusMessage
from edgemig.model import StrategyKind

IDS = dict(zip(ag.Role, ("src", "dst", "cli", "orc")))


def _key(states, channels, work, lost):
    """A hashable image of a search state."""
    return (tuple((s.phase, s.pos, s.image_bytes, s.diagnostic,
                   tuple((m.kind, m.topic) for m in s.held))
                  for s in states.values()),
            tuple(sorted((pair, tuple((m.kind, m.topic, m.payload_bytes)
                                      for m in queue))
                         for pair, queue in channels.items() if queue)),
            tuple(sorted(work.items())), lost)


def _search(info, drop=False):
    """Every end state reachable from the kickoff, as (agent states,
    whether a message was lost), and the number of distinct states."""
    protocol = ag.compile_protocol(info)
    routes = protocol.routes
    rows = {(IDS[row.sender], row.kind, row.topic)
            for row in ag.clean_run(info)}
    states = {aid: ag.AgentState(role, protocol.scripts[role])
              for role, aid in IDS.items()}

    def step(states, channels, work, lost, agent_id, event):
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
        return states, channels, work, lost

    def successors(states, channels, work, lost):
        for pair, queue in channels.items():
            if queue:
                left = {**channels, pair: queue[1:]}
                yield step(states, left, work, lost, pair[1], queue[0])
                if drop and not lost:
                    yield states, left, work, True
        for aid, item in work.items():
            yield step(states, channels,
                       {other: w for other, w in work.items() if other != aid},
                       lost, aid, ag.Work(item.kind, 4096.0, item.round)
                       if item.kind in ag.CHECKPOINTS else item)
        if drop and not work and not any(channels.values()):
            for aid, state in states.items():
                if state.phase not in ag.TERMINAL_PHASES:
                    yield step(states, channels, work, lost, aid,
                               ag.TimerFired())

    start = step(states, {}, {}, False, "orc", ag.Kickoff())
    seen, frontier, ends = {_key(*start)}, [start], []
    while frontier:
        current = frontier.pop()
        after = list(successors(*current))
        if not after:
            ends.append((current[0], current[3]))
        for state in after:
            if (key := _key(*state)) not in seen:
                seen.add(key)
                frontier.append(state)
    return ends, len(seen)


def _info(strategy, iterations):
    return ag.TaskInfo("t1", "src", "dst", "cli", "orc", strategy,
                       iterations, "netns:t1")


CASES = [(StrategyKind.COLD, 0), (StrategyKind.PRE_COPY, 0),
         *((StrategyKind.ITERATIVE_PRE_COPY, i) for i in range(1, 5))]
ALL_DONE = dict.fromkeys(IDS.values(), ag.DONE)


# Per case, the distinct states: each pre-copy round adds twelve.
@pytest.mark.parametrize("strategy,iterations,count", [
    (*case, count) for case, count in zip(CASES, (46, 54, 66, 78, 90, 102))])
def test_every_interleaving_ends_with_every_agent_done(strategy, iterations,
                                                       count):
    ends, seen = _search(_info(strategy, iterations))
    assert seen == count
    [(end, lost)] = ends
    assert not lost
    assert {aid: state.phase for aid, state in end.items()} == ALL_DONE


# Per case, the distinct states with one loss and the watchdogs: each
# pre-copy round adds 73.
@pytest.mark.parametrize("strategy,iterations,count", [
    (*case, count) for case, count in zip(CASES, (180, 196, 269, 342, 415,
                                                  488))])
def test_a_lost_message_ends_every_agent_and_never_completes(
        strategy, iterations, count):
    ends, seen = _search(_info(strategy, iterations), drop=True)
    assert seen == count
    assert any(lost for _, lost in ends)
    for end, lost in ends:
        phases = {aid: state.phase for aid, state in end.items()}
        assert set(phases.values()) <= ag.TERMINAL_PHASES
        if lost:
            assert phases["orc"] == ag.FAILED
    [clean] = [end for end, lost in ends if not lost]
    assert {aid: state.phase for aid, state in clean.items()} == ALL_DONE
