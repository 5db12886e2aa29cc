(** Declarative description of the design space and its expansion into a
    deduplicated job list.

    The paper's Tables 3-8 are hand-picked slices of one design space:
    machine organization x issue units x buffer/RUU size x result-bus
    interconnect x branch handling x machine variant x workload. An
    {!t} names the values swept along each axis; {!enumerate} expands
    them into the cross product of {e valid} combinations — axes that a
    machine family does not have are simply not crossed for it, an RUU
    smaller than its issue width is dropped, and the final list is
    deduplicated and sorted so the job list is deterministic.

    A {!point} is one cell of the space: a machine, a machine variant
    (latency configuration), and one Livermore loop. Its {!key} is a
    stable canonical string naming the full configuration {e and} the
    identity of the workload trace {e and} the simulator version — the
    content address under which the result store files the point's
    result. *)

module Config = Mfu_isa.Config
module Sim_types = Mfu_sim.Sim_types

val sim_version : string
(** Version tag of the timing simulators, part of every {!key}. Bump it
    when a simulator's semantics change so stored results from older
    builds are never mistaken for current ones. *)

(** One machine organization, spanning every simulator family of the
    repository. The type itself lives in {!Mfu_model} (the surrogate
    prices machines without depending on this layer); the constructors
    are re-exported here so explore code keeps pattern-matching on
    [Axes.Ruu {...}] etc. *)
type machine = Mfu_model.machine =
  | Single of Mfu_sim.Single_issue.organization
      (** single issue unit, hazards block at issue (Table 1) *)
  | Dep of Mfu_sim.Dep_single.scheme
      (** single issue unit with scoreboard / Tomasulo resolution *)
  | Buffer of {
      policy : Mfu_sim.Buffer_issue.policy;
      stations : int;
      bus : Sim_types.bus_model;
    }  (** multiple issue units over an instruction buffer (Tables 3-6) *)
  | Ruu of {
      issue_units : int;
      ruu_size : int;
      bus : Sim_types.bus_model;
      branches : Mfu_sim.Ruu.branch_handling;
    }  (** RUU dependency resolution (Tables 7-8) *)

val machine_to_string : machine -> string
(** Stable canonical form, e.g. ["ruu(units=4,size=50,bus=N-Bus,branches=stall)"].
    Injective over valid machines; used in keys and report labels. *)

val issue_units_of : machine -> int
val window_of : machine -> int
(** Buffered instructions the machine examines: [stations] for a buffer
    machine, [ruu_size] for an RUU machine, 0 for the single-issue
    families. *)

val bus_of : machine -> Sim_types.bus_model
(** The result-bus interconnect ([N_bus] for the single-issue families,
    which have one unit and one bus). *)

val cost : machine -> float
(** Abstract hardware cost of the machine, the x axis of the Pareto
    analysis: [4*issue_units + window + bus], where the bus term is 1
    for a single shared bus, [issue_units] for the N-bus arrangement and
    [issue_units^2] for the full crossbar (single-issue families count
    as one unit with one bus). The scale is arbitrary; only the ordering
    and relative spacing matter. *)

type point = { machine : machine; config : Config.t; loop : int; scale : int }
(** [loop] is a Livermore loop number (1..14); [scale] multiplies the
    loop's default problem size ({!Mfu_loops.Livermore.scaled}; 1 = the
    paper-sized workload). *)

val key : point -> string
(** The canonical content key: simulator version, machine, full latency
    configuration, loop number, workload scale, and an MD5 digest of the
    loop's trace in {!Mfu_exec.Trace_io} format. Two points with equal
    keys are the same experiment on the same workload under the same
    simulators; the scale appears both explicitly and through the trace
    digest, so a scaled run can never alias the default-size result.
    Trace digests are memoized per (loop, scale); the first call for a
    pair generates its trace.

    Steady-state acceleration ({!Mfu_sim.Steady}) is deliberately {e not}
    a key dimension: accelerated and full runs are bit-identical by
    construction (enforced by the differential test suite), so results
    computed either way share one entry. *)

val run : ?metrics:Sim_types.Metrics.t -> point -> Sim_types.result
(** Execute the point's simulation on the loop's trace. When [metrics]
    is supplied the simulator records stall attribution, issue and
    occupancy histograms into it; the timing result is bit-identical
    either way. *)

val run_metrics : point -> Sim_types.result * Sim_types.Metrics.t
(** [run] with a fresh metrics recorder — the guided sweep uses the
    returned occupancy histogram to certify window saturation. *)

val rank : point list -> (point * float) list
(** Order points best-first by predicted Pareto-optimality. Each point
    is priced by the calibrated surrogate ({!Mfu_model.predict_rate},
    the returned score); machines are then peeled by predicted
    cost/class-rate frontier depth within every (config, scale, loop
    class) group — class rate being the harmonic mean of the machine's
    per-loop predictions, the same aggregation the exact Pareto
    analysis uses — and all of a machine's cells for one class share
    its depth. A best-first consumer therefore finishes every
    predicted-optimal machine before touching a predicted-dominated
    one, the order the guided sweep's dominance pruning profits from.
    Ties break by cost, then predicted class rate, then machine label,
    so the order is deterministic. Calibration runs exact simulations
    (memoized process-wide); see {!Mfu_model.calibration_runs}. *)

val family_key : point -> string
(** Simulator family x loop x scale, e.g. ["ruu loop=LL5 scale=1"]: the
    label under which the serve daemon attributes compute time. *)

(** {1 Axis specification} *)

type t = {
  orgs : Mfu_sim.Single_issue.organization list;
  schemes : Mfu_sim.Dep_single.scheme list;
  policies : Mfu_sim.Buffer_issue.policy list;
  stations : int list;  (** crossed with [policies] and [buses] *)
  units : int list;  (** RUU issue units, crossed with [sizes] etc. *)
  sizes : int list;  (** RUU sizes *)
  buses : Sim_types.bus_model list;
  branches : Mfu_sim.Ruu.branch_handling list;
  configs : Config.t list;
  loops : int list;
  scales : int list;  (** workload scale factors, crossed with [loops] *)
}

val empty : t
(** No machines (so [enumerate empty = []]); the workload and shared
    axes carry defaults so that specs only need to name what they sweep:
    [configs] = the four paper variants, [loops] = all 14 loops,
    [scales] = [[1]], [buses] = [[N_bus]], [branches] = [[Stall]]. *)

val paper_ruu_sizes : int list
(** [10; 20; 30; 40; 50; 100] — the RUU sizes of Tables 7-8. *)

val paper_ruu_units : int list
(** [1; 2; 3; 4] — the issue-unit counts of Tables 7-8. *)

val table7 : t
(** The paper's Table 7 grid as a degenerate sweep: RUU units 1-4, sizes
    10-100, N-bus and 1-bus, branch stalling, all four machine variants,
    the five scalar loops. *)

val table8 : t
(** Table 8: as {!table7} over the nine vectorizable loops. *)

val enumerate : t -> point list
(** Expand the axes into the valid cross product, deduplicated
    (duplicate axis values collapse) and sorted into a deterministic
    order. RUU points with [ruu_size < issue_units] are dropped as
    invalid rather than raised. *)

val of_string : string -> (t, string) result
(** Parse a command-line axes spec.

    Either a preset name — [table7], [table8], [paper-ruu] (both) — or a
    semicolon-separated list of [axis=values] clauses with comma-
    separated values and [a-b] integer ranges:

    {v
    org=cray,simple; dep=all; policy=ooo; stations=1-8;
    units=1-4; size=10,50; bus=nbus,1bus; branch=stall,oracle,bimodal:256;
    config=m11br5; loops=scalar; scale=1,100
    v}

    Unnamed axes take the {!empty} defaults ([config=all], [loops=all]
    being the most useful ones). Unknown axes or values are errors. *)

val to_string : t -> string
(** Canonical spec form; [of_string (to_string t)] succeeds. *)
