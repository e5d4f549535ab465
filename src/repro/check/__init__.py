"""Explicit-state model checking of the netsim protocol implementation.

``repro check`` drives the *actual* coordinator/node/lockmgr code --
not a reimplementation -- deterministically through every
message-delivery order, timer race, site crash/recover point, and link
partition event up to a bounded depth, checking invariant oracles in
every reachable state:

* :mod:`.actions` -- the schedule alphabet and the independence relation;
* :mod:`.harness` -- one cluster under schedule control (transport and
  timer seams engaged), restored in place from a snapshot or replayed
  from the root;
* :mod:`.state` -- canonical snapshots used as exact state fingerprints;
* :mod:`.oracles` -- the invariant catalog (fork freedom, participant
  exclusivity, distinguished-partition mutual exclusion, VN monotonicity,
  durable commit chains, lock safety);
* :mod:`.explorer` -- depth-bounded DFS with sleep sets, state caching
  and a memo of the transitions already taken; a transition never taken
  restores the harness from its state's snapshot;
* :mod:`.counterexample` -- minimization and replayable JSONL schedules;
* :mod:`.runner` -- the ``repro check`` CLI.

See docs/CHECKING.md for the state model and the soundness argument.
"""

from .actions import (
    Action,
    CrashSite,
    CutLink,
    Deliver,
    FireTimer,
    HealLink,
    RecoverSite,
    SubmitOp,
    independent,
)
from .counterexample import (
    load_schedule,
    minimize,
    replay_schedule,
    run_schedule,
    schedule_to_jsonl,
)
from .explorer import CheckResult, Explorer
from .harness import CheckConfig, CheckHarness
from .oracles import ORACLES, Violation, check_oracles, default_oracle_names
from .state import ClusterSnapshot

__all__ = [
    "Action",
    "SubmitOp",
    "Deliver",
    "FireTimer",
    "CrashSite",
    "RecoverSite",
    "CutLink",
    "HealLink",
    "independent",
    "CheckConfig",
    "CheckHarness",
    "ClusterSnapshot",
    "ORACLES",
    "Violation",
    "check_oracles",
    "default_oracle_names",
    "Explorer",
    "CheckResult",
    "run_schedule",
    "minimize",
    "schedule_to_jsonl",
    "load_schedule",
    "replay_schedule",
]
