type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null" (* JSON has no NaN/inf *)
  | _ ->
      let s = Printf.sprintf "%.12g" f in
      (* keep the token a JSON number even when %g drops the point *)
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
      else s ^ ".0"

let rec write buf ~indent ~level json =
  let pad n = if indent > 0 then Buffer.add_string buf (String.make (n * indent) ' ') in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  match json with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          write buf ~indent ~level:(level + 1) x)
        xs;
      newline ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          escape_to buf k;
          Buffer.add_string buf (if indent > 0 then ": " else ":");
          write buf ~indent ~level:(level + 1) v)
        fields;
      newline ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = 2) json =
  let buf = Buffer.create 1024 in
  write buf ~indent ~level:0 json;
  Buffer.contents buf

let to_channel ?indent oc json =
  output_string oc (to_string ?indent json);
  output_char oc '\n'

let of_int_array a = List (Array.to_list (Array.map (fun i -> Int i) a))

(* -- parsing ---------------------------------------------------------------- *)

(* An index scanner over [text]: the cursor is an int, bytes are read in
   place, and an escape-free string is one [String.sub] — a [Buffer] is
   made only for a string holding a backslash. The grammar and every
   [Error] string match the original char-option parser, kept as the
   test oracle (test/oracle/json.ml). *)

exception Parse_error of int * string

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* encode one Unicode scalar value; enough for re-reading our output *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let at c = !pos < n && String.unsafe_get text !pos = c in
  let expect c =
    if at c then incr pos
    else if !pos < n then
      fail (Printf.sprintf "expected %C, found %C" c text.[!pos])
    else fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get text !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr pos
    done
  in
  let literal word value =
    let l = String.length word in
    let rec matches i =
      i = l || (text.[!pos + i] = word.[i] && matches (i + 1))
    in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The four bytes after [\u], read as [int_of_string ("0x" ^ hex)]
     reads them: a hex digit, then hex digits or underscores. *)
  let unicode_escape () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let cp = ref (hex_value text.[!pos]) in
    if !cp < 0 then fail "bad \\u escape";
    for i = 1 to 3 do
      match text.[!pos + i] with
      | '_' -> ()
      | c ->
          let d = hex_value c in
          if d < 0 then fail "bad \\u escape";
          cp := (!cp lsl 4) lor d
    done;
    pos := !pos + 4;
    !cp
  in
  (* Advance over bytes a string holds verbatim. *)
  let skip_plain () =
    while
      !pos < n
      &&
      let c = String.unsafe_get text !pos in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr pos
    done
  in
  (* The rest of a string whose decoded bytes so far are in [buf]; the
     cursor is on the byte that ended a verbatim run. *)
  let rec string_tail buf =
    if !pos >= n then fail "unterminated string";
    match text.[!pos] with
    | '"' ->
        incr pos;
        Buffer.contents buf
    | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        let c = text.[!pos] in
        incr pos;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> add_utf8 buf (unicode_escape ())
        | _ -> fail (Printf.sprintf "bad escape \\%C" c));
        let start = !pos in
        skip_plain ();
        Buffer.add_substring buf text start (!pos - start);
        string_tail buf
    | _ -> fail "raw control character"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if at '"' then begin
      incr pos;
      String.sub text start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf text start (!pos - start);
      string_tail buf
    end
  in
  let skip_digits () =
    while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done
  in
  let parse_number () =
    let start = !pos in
    let fractional = ref false in
    if at '-' then incr pos;
    let first_digit = !pos in
    skip_digits ();
    let digits = !pos - first_digit in
    if at '.' then begin
      fractional := true;
      incr pos;
      skip_digits ()
    end;
    if at 'e' || at 'E' then begin
      fractional := true;
      incr pos;
      if at '+' || at '-' then incr pos;
      skip_digits ()
    end;
    if (not !fractional) && digits > 0 && digits <= 18 then begin
      (* at most 18 digits: no [int] overflow, no token to allocate *)
      let v = ref 0 in
      for i = first_digit to !pos - 1 do
        v := (10 * !v) + Char.code text.[i] - 48
      done;
      Int (if first_digit > start then - !v else !v)
    end
    else
      let token = String.sub text start (!pos - start) in
      if !fractional then
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" token)
      else
        match int_of_string_opt token with
        | Some i -> Int i
        | None -> (
            (* out of int range: fall back to float *)
            match float_of_string_opt token with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "bad number %S" token))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match text.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while at ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "byte %d: %s" at msg)

let member k = function
  | Obj fields -> Stdlib.List.assoc_opt k fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
