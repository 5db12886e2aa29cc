(* The gate of bench.exe --check, as a pure function of the measured rows.

   [floors] pairs a row name with the speedup it must reach; a row with
   no floor is reported but never fails. Only the [selected] rows are
   checked, so [--only] narrows the gate with the measurement. A selected
   row that has a floor but is missing from [rows] fails too: dropping a
   measurement must not pass the gate silently.

   Returns one message per failing row, in [selected] order; the empty
   list means the gate passed. *)
let failures ~floors ~selected rows =
  List.filter_map
    (fun name ->
      match (List.assoc_opt name floors, List.assoc_opt name rows) with
      | None, _ -> None
      | Some _, None -> Some (Printf.sprintf "%s: missing from this run" name)
      | Some floor, Some speedup when speedup < floor ->
          Some
            (Printf.sprintf "%s: speedup %.2fx below the %gx floor" name
               speedup floor)
      | Some _, Some _ -> None)
    selected
