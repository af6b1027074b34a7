"""The Figs. 12/13 full WSN-node SCPN models (closed and open workload).

One event cycle (the paper's Wait/Receiving/Computation/Transmitting
stages, Table XI timing):

1. ``Wait`` — an event arrives (closed: drawn only while waiting;
   open: anytime, queueing).
2. **Receiving** — radio wakes (``RadioStartUpDelay_R`` 0.000194 s),
   listens for a slot (``Channel_Listening`` 0.001 s), receives the
   message (``Transmitting_Receiving`` 0.000576 s per packet), then the
   CPU is handed an *error-check* job (DVS class 2).
3. **Computation** — the CPU runs the main event computation (DVS
   class 3) while the radio idles.
4. **Transmitting** — radio wakes again, listens, transmits, goes to
   sleep; the CPU gets a *post-transmit housekeeping* job (DVS class 1)
   before the system returns to ``Wait``.

The CPU sleeps/wakes **independently** of the stage pipeline: any token
in ``Buffer`` wakes it (deterministic 0.253 s power-up) and it drops
back to sleep after ``Power_Down_Threshold`` seconds of uninterrupted
idleness (Table XI guard ``#Buffer == 0 && #Idle > 0``, enabling
memory).  Every job pays the ``DVS_Delay`` (0.05 s) mode switch and its
class's execution time, dispatched by token-colour local guards exactly
as the paper describes.

Reconstruction choices (the paper prints Table XI but not full arc
lists) are documented in DESIGN.md §5.  The structurally load-bearing
one: with ``com_packets = 1`` the radio phase lasts
0.000194 + 0.001 + 0.000576 = **0.00177 s** — precisely the paper's
closed-model optimum ``Power_Down_Threshold``, because a threshold just
above the transmit phase is what saves the CPU one wake-up per cycle.

Energy accounting follows Table III (PXA271 CPU + CC2420 radio) and the
radio wake-up cost is identical from sleep or idle (stated in
Section VI-A).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields, replace
from itertools import accumulate, groupby, repeat
from operator import itemgetter

import numpy as np

from ..analysis.structural import check_model_invariants
from ..core.arcs import FiringContext, OutputArc
from ..core.distributions import Deterministic, FiringDistribution
from ..core.guards import color_eq, tokens_eq, tokens_gt
from ..core.net import PetriNet
from ..core.simulator import Simulation
from ..energy.accounting import dwell_energy_j
from ..energy.breakdown import EnergyBreakdown, categorize
from ..energy.power import (
    PowerStateTable,
    cpu_power_table,
    radio_power_table,
)
from .dvs import DEFAULT_DVS_CLASSES, DVS_MODE_SWITCH_DELAY_S, DVSClass
from .workload import ClosedWorkload, OpenWorkload, WorkloadGenerator

__all__ = [
    "NodeParameters",
    "WSNNodeResult",
    "WSNNodeModel",
    "build_wsn_node_net",
    "simulate_node_task",
    "simulate_node_ensemble_task",
    "simulate_node_ensembles",
]


def simulate_node_task(
    task: "tuple[NodeParameters, str, float, int]",
) -> "WSNNodeResult":
    """One seeded node simulation from a picklable task tuple.

    The shared worker function for every :mod:`repro.runtime` fan-out
    over node simulations (threshold sweeps, network nodes):
    ``task = (params, workload, horizon, seed)``.
    """
    params, workload, horizon, seed = task
    return WSNNodeModel(params, workload).simulate(horizon, seed=seed)


def simulate_node_ensemble_task(
    tasks: "tuple[tuple[NodeParameters, str | WorkloadGenerator, float, int], ...]",
) -> "list[WSNNodeResult]":
    """:func:`simulate_node_task` over many tasks, as one ensemble.

    The ``engine="vectorized"`` batch form: returns
    ``[simulate_node_task(t) for t in tasks]``, bit for bit, from one
    lockstep :func:`repro.core.fast.run_ensemble` (one net for all
    tasks, see :func:`simulate_node_ensembles`).  Consecutive tasks
    with the same ``params`` and ``workload`` become one model's rows,
    so network nodes whose bursty workloads differ in their rates
    share the ensemble.  Each task keeps its own ``horizon``.
    """
    runs = [list(run) for _, run in groupby(tasks, itemgetter(0, 1))]
    groups = simulate_node_ensembles(
        [WSNNodeModel(params, workload) for (params, workload, *_), *_ in runs],
        [[seed for *_, seed in run] for run in runs],
        [horizon for _, _, horizon, _ in tasks],
    )
    return [result for group in groups for result in group]


def simulate_node_ensembles(
    models: "Sequence[WSNNodeModel]",
    seeds: "Sequence[Sequence[int | None]]",
    horizon: "float | Sequence[float]",
    warmup: float = 0.0,
) -> "list[list[WSNNodeResult]]":
    """Every model's replications as rows of one lockstep ensemble.

    ``models[k]`` runs at each seed of ``seeds[k]``.  ``horizon`` is
    one value for every row or one per row, in seed order.  The net is
    built once, from ``models[0]``; the models may differ only in
    ``power_down_threshold``, in the rates of their workload (an open,
    closed or MMPP workload's emit transitions become per-row timing,
    see :func:`_row_timing`) and in their power tables.  Anything else
    that reaches the net raises :class:`ValueError` naming both values.
    Consecutive models with equal power tables account their rows at
    once from the ensemble's columns, so the result is bit-identical to
    ``[[m.simulate(horizon, seed=s, warmup=warmup) for s in group] for
    m, group in zip(models, seeds)]``, each row at its own horizon.
    """
    from ..core.fast import VectorPredicate, run_ensemble
    from ..runtime.adaptive import shared_field

    if not models:
        return []
    shared = [_net_fields(m) for m in models]
    for name in shared[0]:
        shared_field(shared, name, name)
    timings = [_row_timing(m.params, m.workload) for m in models]
    rows = run_ensemble(
        models[0].build(),
        horizon,
        [s for group in seeds for s in group],
        row_timing={
            name: [t[name] for t, group in zip(timings, seeds) for _ in group]
            for name in timings[0]
        },
        warmup=warmup,
        predicates={"cpu_active": VectorPredicate(WSNNodeModel._cpu_active)},
    )
    results: list[WSNNodeResult] = []
    for (cpu_table, radio_table), run in groupby(
        zip(models, seeds), lambda pair: (pair[0].cpu_table, pair[0].radio_table)
    ):
        thresholds = [
            model.params.power_down_threshold for model, group in run for _ in group
        ]
        start = len(results)
        results += _account(
            rows[start : start + len(thresholds)],
            warmup,
            thresholds,
            cpu_table,
            radio_table,
        )
    ends = accumulate(len(group) for group in seeds)
    return [results[end - len(group) : end] for group, end in zip(seeds, ends)]


def _row_timing(
    params: "NodeParameters", workload: WorkloadGenerator
) -> dict[str, FiringDistribution]:
    """The distributions the rows of one ensemble may vary, by transition.

    The ``Power_Down_Threshold`` delay and the workload's
    :meth:`~repro.models.workload.WorkloadGenerator.emit_timing`.  The
    net builder and the workload's ``attach`` take them from the same
    places, so the net and the rows cannot drift apart.
    """
    timing = {"Power_Down_Threshold": Deterministic(params.power_down_threshold)}
    timing.update(workload.emit_timing())
    return timing


#: Workload fields that reach the net only through ``emit_timing``.
_RATE_FIELDS = ("rate", "rate_on", "rate_off")


def _net_fields(model: "WSNNodeModel") -> dict[str, object]:
    """Everything of ``model`` that shapes its net, but its row timing."""
    out: dict[str, object] = {
        f.name: getattr(model.params, f.name)
        for f in fields(NodeParameters)
        if f.name not in ("power_down_threshold", "arrival_rate")
    }
    w = model.workload
    emit = w.emit_timing()
    if emit:
        # The rates are row timing; the kind, place names, dwell means
        # and which emit transitions exist are not.
        w = (type(w).__name__,) + tuple(
            getattr(w, f.name) for f in fields(w) if f.name not in _RATE_FIELDS
        )
    out["workload"] = w
    out["emit transitions"] = tuple(emit)
    return out


#: System-stage places in pipeline order.
STAGE_PLACES = (
    "Wait",
    "RxStartup",
    "RxListen",
    "RxComm",
    "RxCheck",
    "Computation",
    "TxStartup",
    "TxListen",
    "TxComm",
    "TxCheck",
)

#: CPU-state token places (one token circulates).
CPU_PLACES = ("CPU_Sleep", "CPU_PowerUp", "CPU_Idle", "DVS_Wait", "Execute")

#: Radio-state token places (one token circulates).
RADIO_PLACES = ("Radio_Sleep", "Radio_PowerUp", "Radio_Active", "Radio_Idle")

#: Table III power states in credit order.  The CPU's time fractions
#: are the occupancies of ``CPU_PLACES[:3]`` and the ``cpu_active``
#: predicate; the radio's are the occupancies of ``RADIO_PLACES``.
_CPU_STATES = ("standby", "powerup", "idle", "active")
_RADIO_STATES = ("standby", "powerup", "active", "idle")
#: The Fig. 14/15 category of each credited (component, state).
_CATEGORIES = tuple(categorize("cpu", s) for s in _CPU_STATES) + tuple(
    categorize("radio", s) for s in _RADIO_STATES
)


@dataclass(frozen=True)
class NodeParameters:
    """Table XI timing parameters plus the swept threshold.

    All times in seconds; defaults are the paper's.
    """

    power_down_threshold: float = 0.01
    arrival_rate: float = 1.0
    radio_startup_delay: float = 0.000194
    channel_listening: float = 0.001
    transmit_receive: float = 0.000576
    cpu_power_up_delay: float = 0.253
    dvs_mode_switch: float = DVS_MODE_SWITCH_DELAY_S
    com_packets: int = 1
    dvs_classes: tuple[DVSClass, ...] = tuple(DEFAULT_DVS_CLASSES.values())

    def __post_init__(self) -> None:
        if self.power_down_threshold < 0:
            raise ValueError("power_down_threshold must be >= 0")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if self.com_packets < 1:
            raise ValueError("com_packets must be >= 1")
        ids = [c.class_id for c in self.dvs_classes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate DVS class ids: {ids}")
        needed = {1, 2, 3}
        if not needed <= set(ids):
            raise ValueError(
                f"node model needs DVS classes {sorted(needed)}, got {sorted(ids)}"
            )

    def radio_phase_duration(self) -> float:
        """Startup + listening + per-packet transfer: one radio burst."""
        return (
            self.radio_startup_delay
            + self.channel_listening
            + self.com_packets * self.transmit_receive
        )

    def with_threshold(self, pdt: float) -> "NodeParameters":
        """Copy with a different ``power_down_threshold`` (sweep helper)."""
        return replace(self, power_down_threshold=pdt)

    def dvs_class(self, class_id: int) -> DVSClass:
        """Look up a DVS class by id."""
        for c in self.dvs_classes:
            if c.class_id == class_id:
                return c
        raise KeyError(f"no DVS class {class_id}")


def _black(ctx: FiringContext) -> None:
    """Output-token producer: always a plain (colourless) token."""
    return None


# Purity annotations for repro.core.fast (see compile.py): _black always
# deposits the colourless token; _buffer_color echoes the colour of the
# single token consumed from Buffer.
_black.fast_static_color = None


def _buffer_color(ctx: FiringContext) -> object:
    """Forward the DVS class colour of the dispatched buffer job."""
    return ctx.consumed["Buffer"][0].color


_buffer_color.fast_forward_place = "Buffer"


def build_wsn_node_net(
    params: NodeParameters,
    workload: WorkloadGenerator,
) -> PetriNet:
    """Construct the closed (Fig. 12) or open (Fig. 13) node net.

    The workload generator decides which figure this is; everything
    else is shared, mirroring how close the two figures are in the
    paper.
    """
    p = params
    net = PetriNet("wsn-node")

    # -- places ---------------------------------------------------------
    for stage in STAGE_PLACES:
        net.add_place(stage, initial_tokens=1 if stage == "Wait" else 0)
    net.add_place("Event_Queue", description="pending external events")
    net.add_place("Radio_Sleep", initial_tokens=1)
    net.add_place("Radio_PowerUp")
    net.add_place("Radio_Active")
    net.add_place("Radio_Idle")
    net.add_place("CPU_Sleep", initial_tokens=1)
    net.add_place("CPU_PowerUp")
    net.add_place("CPU_Idle")
    net.add_place("DVS_Wait", description="job switching DVS mode")
    net.add_place("Execute", description="job executing at its DVS level")
    net.add_place("Buffer", description="CPU job queue (colour = DVS class)")
    net.add_place("JobComplete", description="finished jobs (colour = class)")
    net.add_place("RxPackets")
    net.add_place("RxDonePk")
    net.add_place("TxPackets")
    net.add_place("TxDonePk")

    # -- workload --------------------------------------------------------
    workload.attach(net, "Event_Queue")

    # -- receive phase ---------------------------------------------------
    net.add_transition(
        "Start_Receive",
        inputs=["Wait", "Event_Queue", "Radio_Sleep"],
        outputs=["RxStartup", "Radio_PowerUp"],
        priority=3,
        description="event begins a cycle; radio starts waking",
    )
    net.add_transition(
        "RadioStartUpDelay_R",
        Deterministic(p.radio_startup_delay),
        inputs=["RxStartup", "Radio_PowerUp"],
        outputs=["RxListen", "Radio_Active"],
    )
    net.add_transition(
        "Channel_Listening_R",
        Deterministic(p.channel_listening),
        inputs=["RxListen"],
        outputs=["RxComm", ("RxPackets", p.com_packets)],
    )
    net.add_transition(
        "Transmitting_Receiving_R",
        Deterministic(p.transmit_receive),
        inputs=["RxPackets"],
        outputs=["RxDonePk"],
        description="per-packet reception",
    )
    net.add_transition(
        "T17",
        inputs=["RxComm", ("RxDonePk", p.com_packets), "Radio_Active"],
        outputs=[
            "RxCheck",
            OutputArc("Buffer", color=2),
            "Radio_Idle",
        ],
        priority=3,
        description="reception done: radio idles, CPU error-checks (class 2)",
    )

    # -- computation phase -------------------------------------------------
    net.add_transition(
        "T7",
        inputs=["RxCheck", ("JobComplete", 1, color_eq(2))],
        outputs=["Computation", OutputArc("Buffer", color=3)],
        priority=1,
        description="error check done: main computation job (class 3)",
    )

    # -- transmit phase ----------------------------------------------------
    net.add_transition(
        "T19",
        inputs=["Computation", ("JobComplete", 1, color_eq(3)), "Radio_Idle"],
        outputs=["TxStartup", "Radio_PowerUp"],
        priority=3,
        description="computation done: radio wakes for transmission",
    )
    net.add_transition(
        "RadioStartUpDelay_T",
        Deterministic(p.radio_startup_delay),
        inputs=["TxStartup", "Radio_PowerUp"],
        outputs=["TxListen", "Radio_Active"],
    )
    net.add_transition(
        "Channel_Listening_T",
        Deterministic(p.channel_listening),
        inputs=["TxListen"],
        outputs=["TxComm", ("TxPackets", p.com_packets)],
    )
    net.add_transition(
        "Transmitting_Receiving_T",
        Deterministic(p.transmit_receive),
        inputs=["TxPackets"],
        outputs=["TxDonePk"],
        description="per-packet transmission",
    )
    net.add_transition(
        "Wait_Transmitting",
        inputs=["TxComm", ("TxDonePk", p.com_packets), "Radio_Active"],
        outputs=[
            "TxCheck",
            OutputArc("Buffer", color=1),
            "Radio_Sleep",
        ],
        priority=3,
        description="transmission done: radio sleeps, CPU housekeeping (class 1)",
    )
    net.add_transition(
        "Wait_Begin",
        inputs=["TxCheck", ("JobComplete", 1, color_eq(1))],
        outputs=["Wait"],
        priority=3,
        description="housekeeping done: back to Wait",
    )

    # -- CPU sleep/wake + DVS pipeline --------------------------------------
    net.add_transition(
        "T3",
        inputs=["CPU_Sleep"],
        outputs=["CPU_PowerUp"],
        guard=tokens_gt("Buffer", 0),
        priority=2,
        description="any buffered job wakes the CPU",
    )
    net.add_transition(
        "Power_Up_Delay",
        Deterministic(p.cpu_power_up_delay),
        inputs=["CPU_PowerUp"],
        outputs=["CPU_Idle"],
    )
    net.add_transition(
        "Dispatch",
        inputs=["CPU_Idle", "Buffer"],
        outputs=[OutputArc("DVS_Wait", producer=_buffer_color)],
        priority=2,
        description="idle CPU picks the oldest buffered job",
    )
    net.add_transition(
        "DVS_Delay",
        Deterministic(p.dvs_mode_switch),
        inputs=["DVS_Wait"],
        outputs=["Execute"],
        description="voltage/frequency mode switch",
    )
    for cls in p.dvs_classes:
        net.add_transition(
            cls.transition_name,
            Deterministic(cls.execute_delay_s),
            inputs=[("Execute", 1, color_eq(cls.class_id))],
            outputs=[
                OutputArc("CPU_Idle", producer=_black),
                OutputArc("JobComplete", color=cls.class_id),
            ],
            description=f"execute class-{cls.class_id} job ({cls.description})",
        )
    net.add_transition(
        "Power_Down_Threshold",
        _row_timing(p, workload)["Power_Down_Threshold"],
        inputs=["CPU_Idle"],
        outputs=[OutputArc("CPU_Sleep", producer=_black)],
        guard=tokens_eq("Buffer", 0),
        description="sleep after uninterrupted idleness (enabling memory)",
    )

    check_model_invariants(
        net,
        [
            ("cpu-state-token", list(CPU_PLACES)),
            ("radio-state-token", list(RADIO_PLACES)),
            ("system-stage-token", list(STAGE_PLACES)),
        ],
    )
    return net


@dataclass
class WSNNodeResult:
    """Everything one node run reports (the Figs. 14/15 quantities)."""

    power_down_threshold: float
    duration: float
    cpu_fractions: dict[str, float]
    radio_fractions: dict[str, float]
    stage_fractions: dict[str, float]
    events_completed: int
    cpu_wakeups: int
    radio_wakeups: int
    breakdown: EnergyBreakdown

    @property
    def total_energy_j(self) -> float:
        """Node energy over the run, Joules."""
        return self.breakdown.total_j()


class WSNNodeModel:
    """Simulatable node model with energy accounting.

    Parameters
    ----------
    params:
        Timing parameters (Table XI defaults + the swept threshold).
    workload:
        ``"closed"`` (Fig. 12), ``"open"`` (Fig. 13) or any custom
        :class:`~repro.models.workload.WorkloadGenerator`.
    cpu_table / radio_table:
        Power tables; Table III defaults.
    """

    def __init__(
        self,
        params: NodeParameters,
        workload: str | WorkloadGenerator = "closed",
        cpu_table: PowerStateTable | None = None,
        radio_table: PowerStateTable | None = None,
    ) -> None:
        self.params = params
        if isinstance(workload, str):
            if workload == "closed":
                self.workload: WorkloadGenerator = ClosedWorkload(
                    params.arrival_rate, wait_place="Wait"
                )
            elif workload == "open":
                self.workload = OpenWorkload(params.arrival_rate)
            else:
                raise ValueError(
                    f"workload must be 'closed', 'open' or a generator, "
                    f"got {workload!r}"
                )
        else:
            self.workload = workload
        self.cpu_table = cpu_table if cpu_table is not None else cpu_power_table()
        self.radio_table = (
            radio_table if radio_table is not None else radio_power_table()
        )

    def build(self) -> PetriNet:
        """A fresh net for this parameterisation."""
        return build_wsn_node_net(self.params, self.workload)

    # -- state predicates -------------------------------------------------
    @staticmethod
    def _cpu_active(view) -> bool:
        return view.count("DVS_Wait") + view.count("Execute") > 0

    def simulate(
        self,
        horizon: float,
        seed: int | None = None,
        warmup: float = 0.0,
    ) -> WSNNodeResult:
        """Run the node for ``horizon`` seconds and account energy."""
        net = self.build()
        sim = Simulation(net, seed=seed, warmup=warmup)
        sim.add_predicate("cpu_active", self._cpu_active)
        return self._account(sim.run(horizon).columns(), warmup)[0]

    def simulate_ensemble(
        self,
        horizon: float,
        seeds: "Sequence[int | None]",
        warmup: float = 0.0,
    ) -> list[WSNNodeResult]:
        """Replications of this model through the fast engine.

        Runs every seed in lockstep via
        :func:`repro.core.fast.run_ensemble` (see
        :func:`simulate_node_ensembles` for several models at once),
        bit-identical to ``[self.simulate(horizon, seed=s,
        warmup=warmup) for s in seeds]``.
        """
        return simulate_node_ensembles([self], [seeds], horizon, warmup)[0]

    def _account(self, rows, warmup: float) -> list[WSNNodeResult]:
        """Every row of an engine result, accounted with this model's
        threshold and power tables (see :func:`_account`)."""
        return _account(
            rows,
            warmup,
            repeat(self.params.power_down_threshold),
            self.cpu_table,
            self.radio_table,
        )


def _account(
    rows,
    warmup: float,
    thresholds: Iterable[float],
    cpu_table: PowerStateTable,
    radio_table: PowerStateTable,
) -> list[WSNNodeResult]:
    """Turn every row of an engine result into the Figs. 14/15
    quantities, all rows at once.

    ``rows`` is an :class:`~repro.core.fast.EnsembleResults`, or one
    interpreted run's ``SimulationResult.columns()``; ``thresholds``
    is each row's ``power_down_threshold``.  Each row keeps the float
    operations of a scalar account, so results are bit-identical
    across engines and however many rows are accounted together.
    """
    duration = rows.end_time - warmup
    cpu = np.array(
        [rows.occupancy(p) for p in CPU_PLACES[:3]]
        + [rows.predicate_probability("cpu_active")]
    )
    radio = np.array([rows.occupancy(p) for p in RADIO_PLACES])
    stages = np.array([rows.occupancy(stage) for stage in STAGE_PLACES])
    # Credit order is category order, so total_j() sums alike; the
    # 0.0 + is EnergyBreakdown.from_component_states' sum from 0.0.
    energy = 0.0 + np.concatenate(
        [
            dwell_energy_j(cpu_table, _CPU_STATES, cpu * duration),
            dwell_energy_j(radio_table, _RADIO_STATES, radio * duration),
        ]
    )
    return [
        WSNNodeResult(
            power_down_threshold=threshold,
            duration=d,
            cpu_fractions=dict(zip(_CPU_STATES, c)),
            radio_fractions=dict(zip(_RADIO_STATES, r)),
            stage_fractions=dict(zip(STAGE_PLACES, st)),
            events_completed=events,
            cpu_wakeups=wakeups,
            radio_wakeups=radio_wakeups,
            breakdown=EnergyBreakdown(dict(zip(_CATEGORIES, e))),
        )
        for threshold, d, c, r, st, events, wakeups, radio_wakeups, e in zip(
            thresholds,
            duration.tolist(),
            cpu.T.tolist(),
            radio.T.tolist(),
            stages.T.tolist(),
            rows.firing_count("Wait_Begin").tolist(),
            rows.firing_count("T3").tolist(),
            (
                rows.firing_count("Start_Receive") + rows.firing_count("T19")
            ).tolist(),
            energy.T.tolist(),
        )
    ]
