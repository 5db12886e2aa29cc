(** Oracle for {!Mfu_limits.Limits}: the dataflow walk over [Trace.entry]
    records. Limits and metrics are byte-identical to the production
    analysis's. *)

val analyze :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  config:Mfu_isa.Config.t ->
  Mfu_exec.Trace.t ->
  Mfu_limits.Limits.t

val critical_path :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  config:Mfu_isa.Config.t ->
  Mfu_exec.Trace.t ->
  int
