"""repro — reproduction of *Energy Modeling of Wireless Sensor Nodes
Based on Petri Nets* (Shareef & Zhu, ICPP 2010).

Subpackages
-----------
``repro.core``
    Stochastic colored Petri-net engine (the TimeNET 4.0 substitute).
``repro.analysis``
    Structural and numerical net analysis (reachability, invariants,
    CTMC conversion).
``repro.markov``
    Markov substrate: CTMC solvers, birth–death chains, and the
    paper's supplementary-variable CPU model (Eqs. 1–6).
``repro.des``
    Discrete-event-simulation substrate: the ground-truth CPU simulator
    of Section IV and the IMote2 "hardware" simulator of Section V.
``repro.energy``
    Power-state tables (Tables III and VII) and energy accounting
    (Eqs. 6–8), including the Fig. 14/15 component breakdown.
``repro.models``
    The paper's four models: the Fig. 3 CPU Petri net, the Markov CPU
    model, the Fig. 10 simple node, and the Figs. 12/13 closed/open
    WSN node models — plus the multi-node network layer (line, star
    and hundreds-of-node grid topologies).
``repro.experiments``
    Harness regenerating every table and figure of the evaluation,
    plus network-level lifetime scenarios.
``repro.runtime``
    Parallel replication/sweep execution runtime (process pools with
    spawn-safe seeding and a content-addressed result store); every
    experiment driver routes its grid through it.
"""

__version__ = "1.2.0"

__all__ = [
    "core",
    "analysis",
    "markov",
    "des",
    "energy",
    "models",
    "experiments",
    "runtime",
]
