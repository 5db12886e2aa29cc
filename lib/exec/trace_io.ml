module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg

let header = "mfu-trace 1"

let kind_of_string s =
  match s with
  | "plain" -> Some Trace.Plain
  | "taken" -> Some Trace.Taken_branch
  | "untaken" -> Some Trace.Untaken_branch
  | _ ->
      let prefixed p mk =
        let pl = String.length p in
        if String.length s > pl && String.sub s 0 pl = p then
          Option.map mk (int_of_string_opt (String.sub s pl (String.length s - pl)))
        else None
      in
      (match prefixed "load@" (fun a -> Trace.Load a) with
      | Some k -> Some k
      | None -> prefixed "store@" (fun a -> Trace.Store a))

let fu_of_string s = List.find_opt (fun k -> Fu.to_string k = s) Fu.all

let reg_of_string s =
  if String.length s < 2 then None
  else
    let idx = int_of_string_opt (String.sub s 1 (String.length s - 1)) in
    match (s.[0], idx) with
    | 'A', Some i when i >= 0 && i < 8 -> Some (Reg.A i)
    | 'S', Some i when i >= 0 && i < 8 -> Some (Reg.S i)
    | 'B', Some i when i >= 0 && i < 64 -> Some (Reg.B i)
    | 'T', Some i when i >= 0 && i < 64 -> Some (Reg.T i)
    | 'V', Some i when i >= 0 && i < 8 && String.length s = 2 -> Some (Reg.V i)
    | _ -> None

let reg_of_string s = if s = "VL" then Some Reg.VL else reg_of_string s

(* The writer appends straight into the buffer, with no [Printf]: this
   text is hashed into every [mfu-point/v1] key (Axes.key). The 14
   paper-sized digests are computed when the explore library is built;
   a process serializes a scaled trace the first time it keys one. Its
   bytes are part of the key contract. The test suite's oracle
   (test/oracle/trace_io.ml) keeps the original [Printf] writer;
   test_trace_io checks this one against it and pins the digests. *)

(* Decimal digits of [n <= 0], most significant first. Counting on the
   non-positive side lets [min_int] through, whose magnitude is no [int]. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let reg_names = Array.init Reg.count (fun i -> Reg.to_string (Reg.of_index i))

let add_reg buf r =
  Buffer.add_string buf
    (if Reg.is_valid r then reg_names.(Reg.index r) else Reg.to_string r)

let add_kind buf = function
  | Trace.Plain -> Buffer.add_string buf "plain"
  | Trace.Load a ->
      Buffer.add_string buf "load@";
      add_int buf a
  | Trace.Store a ->
      Buffer.add_string buf "store@";
      add_int buf a
  | Trace.Taken_branch -> Buffer.add_string buf "taken"
  | Trace.Untaken_branch -> Buffer.add_string buf "untaken"

let add_entry buf (e : Trace.entry) =
  add_int buf e.Trace.static_index;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Fu.to_string e.Trace.fu);
  Buffer.add_char buf ' ';
  (match e.Trace.dest with
  | None -> Buffer.add_char buf '-'
  | Some r -> add_reg buf r);
  Buffer.add_char buf ' ';
  (match e.Trace.srcs with
  | [] -> Buffer.add_char buf '-'
  | r :: rest ->
      add_reg buf r;
      List.iter
        (fun r ->
          Buffer.add_char buf ',';
          add_reg buf r)
        rest);
  Buffer.add_char buf ' ';
  add_int buf e.Trace.parcels;
  Buffer.add_char buf ' ';
  add_kind buf e.Trace.kind;
  Buffer.add_char buf ' ';
  add_int buf e.Trace.vl;
  Buffer.add_char buf '\n'

let entry_of_string line =
  let fields = String.split_on_char ' ' line in
  let fields, vl_field =
    match fields with
    | [ a; b; c; d; e; f ] -> (Some (a, b, c, d, e, f), "1")
    | [ a; b; c; d; e; f; vl ] -> (Some (a, b, c, d, e, f), vl)
    | _ -> (None, "1")
  in
  match fields with
  | Some (idx, fu, dest, srcs, parcels, kind) -> (
      let ( let* ) = Option.bind in
      let* static_index = int_of_string_opt idx in
      let* fu = fu_of_string fu in
      let* dest =
        if dest = "-" then Some None
        else Option.map (fun r -> Some r) (reg_of_string dest)
      in
      let* srcs =
        if srcs = "-" then Some []
        else
          let parts = String.split_on_char ',' srcs in
          let regs = List.filter_map reg_of_string parts in
          if List.length regs = List.length parts then Some regs else None
      in
      let* parcels = int_of_string_opt parcels in
      let* kind = kind_of_string kind in
      let* vl = int_of_string_opt vl_field in
      Some { Trace.static_index; fu; dest; srcs; parcels; kind; vl })
  | None -> None

let to_string (trace : Trace.t) =
  let buf = Buffer.create (64 * (Array.length trace + 1)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter (add_entry buf) trace;
  Buffer.contents buf

let digest trace = Digest.to_hex (Digest.string (to_string trace))

let of_string text =
  match String.split_on_char '\n' text with
  | [] -> Error "empty input"
  | first :: rest ->
      if String.trim first <> header then
        Error (Printf.sprintf "bad header %S (expected %S)" first header)
      else begin
        let entries = ref [] in
        let error = ref None in
        List.iteri
          (fun i line ->
            if !error = None && String.trim line <> "" then
              match entry_of_string (String.trim line) with
              | Some e -> entries := e :: !entries
              | None ->
                  error := Some (Printf.sprintf "line %d: cannot parse %S" (i + 2) line))
          rest;
        match !error with
        | Some m -> Error m
        | None -> Ok (Array.of_list (List.rev !entries))
      end

let write_file path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

let read_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          let text = really_input_string ic n in
          of_string text)
