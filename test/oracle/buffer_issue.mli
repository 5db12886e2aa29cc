(** Oracle for {!Mfu_sim.Buffer_issue}: the same machine with a Hashtbl of
    result-bus reservations and hazard lists. Results and metrics are
    byte-identical to the production simulator's. *)

type policy = Mfu_sim.Buffer_issue.policy = In_order | Out_of_order
type alignment = Mfu_sim.Buffer_issue.alignment = Dynamic | Static

val simulate :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  ?alignment:alignment ->
  config:Mfu_isa.Config.t ->
  policy:policy ->
  stations:int ->
  bus:Mfu_sim.Sim_types.bus_model ->
  Mfu_exec.Trace.t ->
  Mfu_sim.Sim_types.result
