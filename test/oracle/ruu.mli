(** Oracle for {!Mfu_sim.Ruu}: the same machine with boxed RUU entry
    records and a full window scan per dispatch. Results and metrics are
    byte-identical to the production simulator's. *)

type branch_handling = Mfu_sim.Ruu.branch_handling =
  | Stall
  | Oracle
  | Static_taken
  | Bimodal of int

val simulate :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  ?branches:branch_handling ->
  config:Mfu_isa.Config.t ->
  issue_units:int ->
  ruu_size:int ->
  bus:Mfu_sim.Sim_types.bus_model ->
  Mfu_exec.Trace.t ->
  Mfu_sim.Sim_types.result
