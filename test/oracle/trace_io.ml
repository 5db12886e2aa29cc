(* The original [Printf] serializer of {!Mfu_exec.Trace_io}, the
   differential oracle for the production one, which writes digits by
   hand. *)

module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace

let header = "mfu-trace 1"

let kind_to_string = function
  | Trace.Plain -> "plain"
  | Trace.Load a -> Printf.sprintf "load@%d" a
  | Trace.Store a -> Printf.sprintf "store@%d" a
  | Trace.Taken_branch -> "taken"
  | Trace.Untaken_branch -> "untaken"

let entry_to_string (e : Trace.entry) =
  Printf.sprintf "%d %s %s %s %d %s %d" e.Trace.static_index
    (Fu.to_string e.Trace.fu)
    (match e.Trace.dest with None -> "-" | Some r -> Reg.to_string r)
    (match e.Trace.srcs with
    | [] -> "-"
    | srcs -> String.concat "," (List.map Reg.to_string srcs))
    e.Trace.parcels
    (kind_to_string e.Trace.kind)
    e.Trace.vl

let to_string (trace : Trace.t) =
  let buf = Buffer.create (64 * (Array.length trace + 1)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun e ->
      Buffer.add_string buf (entry_to_string e);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf
