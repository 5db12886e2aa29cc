(** Oracle for {!Mfu_sim.Single_issue}: the same machine walked over
    [Trace.entry] records. Results and metrics are byte-identical to the
    production simulator's. *)

type organization = Mfu_sim.Single_issue.organization =
  | Simple
  | Serial_memory
  | Non_segmented
  | Cray_like

val simulate :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  ?memory:Mfu_sim.Memory_system.t ->
  config:Mfu_isa.Config.t ->
  organization ->
  Mfu_exec.Trace.t ->
  Mfu_sim.Sim_types.result
