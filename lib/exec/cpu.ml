module Instr = Mfu_isa.Instr
module Reg = Mfu_isa.Reg
module Program = Mfu_asm.Program

exception Step_budget_exceeded of int

type result = { trace : Trace.t; memory : Memory.t; instructions : int }

type state = {
  a : int array;
  s : float array;
  b : int array;
  t : float array;
  v : float array array;
  mutable vl : int;
  memory : Memory.t;
}

let fresh_state memory =
  {
    a = Array.make 8 0;
    s = Array.make 8 0.0;
    b = Array.make 64 0;
    t = Array.make 64 0.0;
    v = Array.init 8 (fun _ -> Array.make 64 0.0);
    vl = 64;
    memory;
  }

let areg = function
  | Reg.A i -> i
  | r -> invalid_arg ("Cpu: not an A register: " ^ Reg.to_string r)

let sreg = function
  | Reg.S i -> i
  | r -> invalid_arg ("Cpu: not an S register: " ^ Reg.to_string r)

let breg = function
  | Reg.B i -> i
  | r -> invalid_arg ("Cpu: not a B register: " ^ Reg.to_string r)

let treg = function
  | Reg.T i -> i
  | r -> invalid_arg ("Cpu: not a T register: " ^ Reg.to_string r)

let vreg = function
  | Reg.V i -> i
  | r -> invalid_arg ("Cpu: not a V register: " ^ Reg.to_string r)

let bits_of_float = Int64.bits_of_float
let float_of_bits = Int64.float_of_bits

(* Execute one instruction; returns the trace kind and the next pc. *)
let step st program pc instruction =
  let open Instr in
  let next = pc + 1 in
  let plain () = (Trace.Plain, next) in
  match instruction with
  | A_imm (d, k) ->
      st.a.(areg d) <- k;
      plain ()
  | A_mov (d, s) ->
      st.a.(areg d) <- st.a.(areg s);
      plain ()
  | A_add (d, x, y) ->
      st.a.(areg d) <- st.a.(areg x) + st.a.(areg y);
      plain ()
  | A_sub (d, x, y) ->
      st.a.(areg d) <- st.a.(areg x) - st.a.(areg y);
      plain ()
  | A_mul (d, x, y) ->
      st.a.(areg d) <- st.a.(areg x) * st.a.(areg y);
      plain ()
  | A_and (d, x, y) ->
      st.a.(areg d) <- st.a.(areg x) land st.a.(areg y);
      plain ()
  | A_load (d, base, disp) ->
      let addr = st.a.(areg base) + disp in
      st.a.(areg d) <- Memory.get_int st.memory addr;
      (Trace.Load addr, next)
  | A_store (v, base, disp) ->
      let addr = st.a.(areg base) + disp in
      Memory.set_int st.memory addr st.a.(areg v);
      (Trace.Store addr, next)
  | S_imm (d, x) ->
      st.s.(sreg d) <- x;
      plain ()
  | S_mov (d, s) ->
      st.s.(sreg d) <- st.s.(sreg s);
      plain ()
  | S_fadd (d, x, y) ->
      st.s.(sreg d) <- st.s.(sreg x) +. st.s.(sreg y);
      plain ()
  | S_fsub (d, x, y) ->
      st.s.(sreg d) <- st.s.(sreg x) -. st.s.(sreg y);
      plain ()
  | S_fmul (d, x, y) ->
      st.s.(sreg d) <- st.s.(sreg x) *. st.s.(sreg y);
      plain ()
  | S_recip (d, s) ->
      st.s.(sreg d) <- 1.0 /. st.s.(sreg s);
      plain ()
  | S_iadd (d, x, y) ->
      st.s.(sreg d) <-
        float_of_int (int_of_float st.s.(sreg x) + int_of_float st.s.(sreg y));
      plain ()
  | S_and (d, x, y) ->
      st.s.(sreg d) <-
        float_of_bits
          (Int64.logand (bits_of_float st.s.(sreg x)) (bits_of_float st.s.(sreg y)));
      plain ()
  | S_or (d, x, y) ->
      st.s.(sreg d) <-
        float_of_bits
          (Int64.logor (bits_of_float st.s.(sreg x)) (bits_of_float st.s.(sreg y)));
      plain ()
  | S_xor (d, x, y) ->
      st.s.(sreg d) <-
        float_of_bits
          (Int64.logxor (bits_of_float st.s.(sreg x)) (bits_of_float st.s.(sreg y)));
      plain ()
  | S_shl (d, s, k) ->
      st.s.(sreg d) <-
        float_of_bits (Int64.shift_left (bits_of_float st.s.(sreg s)) k);
      plain ()
  | S_shr (d, s, k) ->
      st.s.(sreg d) <-
        float_of_bits (Int64.shift_right_logical (bits_of_float st.s.(sreg s)) k);
      plain ()
  | S_load (d, base, disp) ->
      let addr = st.a.(areg base) + disp in
      st.s.(sreg d) <- Memory.get_float st.memory addr;
      (Trace.Load addr, next)
  | S_store (v, base, disp) ->
      let addr = st.a.(areg base) + disp in
      Memory.set_float st.memory addr st.s.(sreg v);
      (Trace.Store addr, next)
  | S_to_t (d, s) ->
      st.t.(treg d) <- st.s.(sreg s);
      plain ()
  | T_to_s (d, s) ->
      st.s.(sreg d) <- st.t.(treg s);
      plain ()
  | A_to_b (d, s) ->
      st.b.(breg d) <- st.a.(areg s);
      plain ()
  | B_to_a (d, s) ->
      st.a.(areg d) <- st.b.(breg s);
      plain ()
  | A_to_s (d, s) ->
      st.s.(sreg d) <- float_of_int st.a.(areg s);
      plain ()
  | S_to_a (d, s) ->
      st.a.(areg d) <- int_of_float st.s.(sreg s);
      plain ()
  | Set_vl a ->
      let n = st.a.(areg a) in
      if n < 1 || n > 64 then
        invalid_arg (Printf.sprintf "Cpu: VL out of range: %d" n);
      st.vl <- n;
      plain ()
  | V_load (d, base, disp) ->
      let addr = st.a.(areg base) + disp in
      let dst = st.v.(vreg d) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- Memory.get_float st.memory (addr + e)
      done;
      (Trace.Load addr, next)
  | V_store (v, base, disp) ->
      let addr = st.a.(areg base) + disp in
      let src = st.v.(vreg v) in
      for e = 0 to st.vl - 1 do
        Memory.set_float st.memory (addr + e) src.(e)
      done;
      (Trace.Store addr, next)
  | V_fadd (d, x, y) ->
      let dst = st.v.(vreg d) and vx = st.v.(vreg x) and vy = st.v.(vreg y) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- vx.(e) +. vy.(e)
      done;
      plain ()
  | V_fsub (d, x, y) ->
      let dst = st.v.(vreg d) and vx = st.v.(vreg x) and vy = st.v.(vreg y) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- vx.(e) -. vy.(e)
      done;
      plain ()
  | V_fmul (d, x, y) ->
      let dst = st.v.(vreg d) and vx = st.v.(vreg x) and vy = st.v.(vreg y) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- vx.(e) *. vy.(e)
      done;
      plain ()
  | V_fadd_sv (d, x, y) ->
      let dst = st.v.(vreg d) and sx = st.s.(sreg x) and vy = st.v.(vreg y) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- sx +. vy.(e)
      done;
      plain ()
  | V_fmul_sv (d, x, y) ->
      let dst = st.v.(vreg d) and sx = st.s.(sreg x) and vy = st.v.(vreg y) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- sx *. vy.(e)
      done;
      plain ()
  | V_recip (d, x) ->
      let dst = st.v.(vreg d) and vx = st.v.(vreg x) in
      for e = 0 to st.vl - 1 do
        dst.(e) <- 1.0 /. vx.(e)
      done;
      plain ()
  | Branch (cond, _label) ->
      let a0 = st.a.(0) in
      let taken =
        match cond with
        | Zero -> a0 = 0
        | Nonzero -> a0 <> 0
        | Plus -> a0 >= 0
        | Minus -> a0 < 0
      in
      let target =
        match Program.target program pc with
        | Some t -> t
        | None -> assert false
      in
      if taken then (Trace.Taken_branch, target)
      else (Trace.Untaken_branch, next)
  | Branch_s (cond, _label) ->
      let s0 = st.s.(0) in
      let taken =
        match cond with
        | Zero -> s0 = 0.0
        | Nonzero -> s0 <> 0.0
        | Plus -> s0 >= 0.0
        | Minus -> s0 < 0.0
      in
      let target =
        match Program.target program pc with
        | Some t -> t
        | None -> assert false
      in
      if taken then (Trace.Taken_branch, target)
      else (Trace.Untaken_branch, next)
  | Jump _label ->
      let target =
        match Program.target program pc with
        | Some t -> t
        | None -> assert false
      in
      (Trace.Taken_branch, target)
  | Halt -> assert false (* handled by the driver loop *)

(* What a dynamic entry inherits from its static instruction, derived
   once per program counter instead of once per executed instruction. *)
type template = {
  fu : Mfu_isa.Fu.kind;
  dest : Reg.t option;
  srcs : Reg.t list;
  parcels : int;
  is_vector : bool;
}

let template ins =
  {
    fu = Instr.fu ins;
    dest = Instr.dest ins;
    srcs = Instr.srcs ins;
    parcels = Instr.parcels ins;
    is_vector =
      (match ins with
      | Instr.V_load _ | Instr.V_store _ | Instr.V_fadd _ | Instr.V_fsub _
      | Instr.V_fmul _ | Instr.V_fadd_sv _ | Instr.V_fmul_sv _
      | Instr.V_recip _ ->
          true
      | _ -> false);
  }

let run ?(max_instructions = 2_000_000) ~program ~memory () =
  let st = fresh_state memory in
  let templates =
    Array.init (Program.length program) (fun pc ->
        template (Program.instr program pc))
  in
  (* The trace grows in an array that doubles and is trimmed once at the
     end. [Array.make] needs a value to fill with: each growth fills with
     the entry being added, so no placeholder entry exists. *)
  let trace = ref [||] in
  let count = ref 0 in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let ins = Program.instr program !pc in
    match ins with
    | Instr.Halt -> running := false
    | _ ->
        if !count >= max_instructions then
          raise (Step_budget_exceeded max_instructions);
        let t = templates.(!pc) in
        let kind, next = step st program !pc ins in
        let entry =
          {
            Trace.static_index = !pc;
            fu = t.fu;
            dest = t.dest;
            srcs = t.srcs;
            parcels = t.parcels;
            kind;
            vl = (if t.is_vector then st.vl else 1);
          }
        in
        if !count = Array.length !trace then begin
          let grown = Array.make (max 1024 (2 * !count)) entry in
          Array.blit !trace 0 grown 0 !count;
          trace := grown
        end;
        !trace.(!count) <- entry;
        incr count;
        pc := next
  done;
  { trace = Array.sub !trace 0 !count; memory; instructions = !count }
