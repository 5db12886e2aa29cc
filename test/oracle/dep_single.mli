(** Oracle for {!Mfu_sim.Dep_single}: the same machines over Hashtbl
    acceptance sets. Results and metrics are byte-identical to the
    production simulator's. *)

type scheme = Mfu_sim.Dep_single.scheme = Scoreboard | Tomasulo

val simulate :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  config:Mfu_isa.Config.t ->
  scheme ->
  Mfu_exec.Trace.t ->
  Mfu_sim.Sim_types.result
