open Mfu_kern.Ast
module Codegen = Mfu_kern.Codegen
module Cpu = Mfu_exec.Cpu

type classification = Scalar | Vectorizable

let classification_to_string = function
  | Scalar -> "scalar"
  | Vectorizable -> "vectorizable"

type loop = {
  number : int;
  title : string;
  classification : classification;
  kernel : kernel;
  inputs : inputs;
}

(* -- little construction DSL --------------------------------------------- *)

let iv v = Ivar v
let ic n = Int n
let ( +! ) a b = Iadd (a, b)
let ( -! ) a b = Isub (a, b)
let ( *! ) a b = Imul (a, b)
let fv v = Fvar v
let fc x = Const x
let el name i = Elem (name, i)
let ( +% ) a b = Add (a, b)
let ( -% ) a b = Sub (a, b)
let ( *% ) a b = Mul (a, b)
let setf name e = Fassign (name, None, e)
let set_el name i e = Fassign (name, Some i, e)
let seti name e = Iassign (name, None, e)
let set_iel name i e = Iassign (name, Some i, e)
let for_ var lo hi body = For { var; lo; hi; step = 1; body }
let for_step var lo hi step body = For { var; lo; hi; step; body }

(* Fortran 2-D element (j, i) with leading dimension [ld]. *)
let idx2 ld j i = j +! ((i -! ic 1) *! ic ld)

let farrays fa = { float_arrays = fa; int_arrays = [] }

let fdata ~seed name n lo hi = (name, Data.floats ~seed ~name ~n ~lo ~hi)
let idata ~seed name n bound = (name, Data.ints ~seed ~name ~n ~bound)

(* -- the kernels ---------------------------------------------------------- *)

let loop1 ?(n = 100) () =
  let seed = 1001 in
  let body =
    [
      for_ "k" (ic 1) (ic n)
        [
          set_el "x" (iv "k")
            (fv "q"
            +% (el "y" (iv "k")
               *% ((fv "r" *% el "z" (iv "k" +! ic 10))
                  +% (fv "t" *% el "z" (iv "k" +! ic 11)))));
        ];
    ]
  in
  {
    number = 1;
    title = "hydro fragment";
    classification = Vectorizable;
    kernel =
      {
        name = "LL1";
        decls = farrays [ ("x", n); ("y", n); ("z", n + 11) ];
        body;
      };
    inputs =
      {
        float_data =
          [ fdata ~seed "y" n 0.1 1.0; fdata ~seed "z" (n + 11) 0.1 1.0 ];
        int_data = [];
        float_scalars = [ ("q", 0.5); ("r", 0.25); ("t", 0.125) ];
        int_scalars = [];
      };
  }

let loop2 ?(n = 64) () =
  if n land (n - 1) <> 0 || n < 4 then
    invalid_arg "loop2: n must be a power of two >= 4";
  let seed = 1002 in
  let size = (2 * n) + 10 in
  let body =
    [
      seti "ii" (ic n);
      seti "ipntp" (ic 0);
      While
        ( Icmp (Gt, iv "ii", ic 1),
          [
            seti "ipnt" (iv "ipntp");
            seti "ipntp" (iv "ipntp" +! iv "ii");
            seti "ii" (Idiv (iv "ii", 2));
            seti "i" (iv "ipntp");
            for_step "k"
              (iv "ipnt" +! ic 2)
              (iv "ipntp") 2
              [
                seti "i" (iv "i" +! ic 1);
                set_el "x" (iv "i")
                  (el "x" (iv "k")
                  -% (el "v" (iv "k") *% el "x" (iv "k" -! ic 1))
                  -% (el "v" (iv "k" +! ic 1) *% el "x" (iv "k" +! ic 1)));
              ];
          ] );
    ]
  in
  {
    number = 2;
    title = "incomplete Cholesky conjugate gradient";
    classification = Vectorizable;
    kernel =
      { name = "LL2"; decls = farrays [ ("x", size); ("v", size) ]; body };
    inputs =
      {
        float_data =
          [ fdata ~seed "x" size 0.5 1.5; fdata ~seed "v" size 0.01 0.11 ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop3 ?(n = 256) () =
  let seed = 1003 in
  let body =
    [
      setf "q" (fc 0.0);
      for_ "k" (ic 1) (ic n)
        [ setf "q" (fv "q" +% (el "z" (iv "k") *% el "x" (iv "k"))) ];
    ]
  in
  {
    number = 3;
    title = "inner product";
    classification = Vectorizable;
    kernel = { name = "LL3"; decls = farrays [ ("x", n); ("z", n) ]; body };
    inputs =
      {
        float_data = [ fdata ~seed "x" n 0.1 1.0; fdata ~seed "z" n 0.1 1.0 ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop4 ?(n = 100) () =
  let seed = 1004 in
  let n2 = n + 1 in
  let m = (n2 - 7) / 2 in
  let xz_size = n2 + (n / 5) + 10 in
  let body =
    [
      for_step "k" (ic 7) (ic n2) m
        [
          seti "lw" (iv "k" -! ic 6);
          setf "temp" (el "x" (iv "k" -! ic 1));
          for_step "j" (ic 5) (ic n) 5
            [
              setf "temp"
                (fv "temp" -% (el "xz" (iv "lw") *% el "y" (iv "j")));
              seti "lw" (iv "lw" +! ic 1);
            ];
          set_el "x" (iv "k" -! ic 1) (el "y" (ic 5) *% fv "temp");
        ];
    ]
  in
  {
    number = 4;
    title = "banded linear equations";
    classification = Vectorizable;
    kernel =
      {
        name = "LL4";
        decls = farrays [ ("x", n2); ("y", n); ("xz", xz_size) ];
        body;
      };
    inputs =
      {
        float_data =
          [
            fdata ~seed "x" n2 0.5 1.5;
            fdata ~seed "y" n 0.1 0.5;
            fdata ~seed "xz" xz_size 0.1 0.5;
          ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop5 ?(n = 256) () =
  let seed = 1005 in
  let body =
    [
      for_ "i" (ic 2) (ic n)
        [
          set_el "x" (iv "i")
            (el "z" (iv "i") *% (el "y" (iv "i") -% el "x" (iv "i" -! ic 1)));
        ];
    ]
  in
  {
    number = 5;
    title = "tri-diagonal elimination, below diagonal";
    classification = Scalar;
    kernel =
      { name = "LL5"; decls = farrays [ ("x", n); ("y", n); ("z", n) ]; body };
    inputs =
      {
        float_data =
          [
            fdata ~seed "x" n 0.1 1.0;
            fdata ~seed "y" n 0.5 1.5;
            fdata ~seed "z" n 0.3 0.8;
          ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop6 ?(n = 24) () =
  let seed = 1006 in
  let body =
    [
      for_ "i" (ic 2) (ic n)
        [
          for_ "k" (ic 1)
            (iv "i" -! ic 1)
            [
              set_el "w" (iv "i")
                (el "w" (iv "i")
                +% (el "b" (idx2 n (iv "k") (iv "i"))
                   *% el "w" (iv "i" -! iv "k")));
            ];
        ];
    ]
  in
  {
    number = 6;
    title = "general linear recurrence equations";
    classification = Scalar;
    kernel =
      { name = "LL6"; decls = farrays [ ("w", n); ("b", n * n) ]; body };
    inputs =
      {
        float_data =
          [ fdata ~seed "w" n 0.01 0.05; fdata ~seed "b" (n * n) 0.0 0.04 ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop7 ?(n = 100) () =
  let seed = 1007 in
  let u i = el "u" i in
  let k = iv "k" in
  let body =
    [
      for_ "k" (ic 1) (ic n)
        [
          set_el "x" k
            (u k
            +% (fv "r" *% (el "z" k +% (fv "r" *% el "y" k)))
            +% (fv "t"
               *% (u (k +! ic 3)
                  +% (fv "r" *% (u (k +! ic 2) +% (fv "r" *% u (k +! ic 1))))
                  +% (fv "t"
                     *% (u (k +! ic 6)
                        +% (fv "r"
                           *% (u (k +! ic 5) +% (fv "r" *% u (k +! ic 4)))))))));
        ];
    ]
  in
  {
    number = 7;
    title = "equation of state fragment";
    classification = Vectorizable;
    kernel =
      {
        name = "LL7";
        decls = farrays [ ("x", n); ("y", n); ("z", n); ("u", n + 6) ];
        body;
      };
    inputs =
      {
        float_data =
          [
            fdata ~seed "y" n 0.1 1.0;
            fdata ~seed "z" n 0.1 1.0;
            fdata ~seed "u" (n + 6) 0.1 1.0;
          ];
        int_data = [];
        float_scalars = [ ("r", 0.25); ("t", 0.125) ];
        int_scalars = [];
      };
  }

let loop8 ?(n = 15) () =
  let seed = 1008 in
  let n2 = n in
  let ld1 = 5 in
  let plane = ld1 * (n2 + 1) in
  let usize = 2 * plane in
  (* Fortran U(kx, ky, l) with dims (5, n2+1, 2). *)
  let uix kx ky l = kx +! ((ky -! ic 1) *! ic ld1) +! ic ((l - 1) * plane) in
  let kx = iv "kx" and ky = iv "ky" in
  let du name = el name ky in
  let update u_name (c1, c2, c3) =
    set_el u_name (uix kx ky 2)
      (el u_name (uix kx ky 1)
      +% (fv c1 *% du "du1")
      +% (fv c2 *% du "du2")
      +% (fv c3 *% du "du3")
      +% (fv "sig"
         *% (el u_name (uix (kx +! ic 1) ky 1)
            -% (fc 2.0 *% el u_name (uix kx ky 1))
            +% el u_name (uix (kx -! ic 1) ky 1))))
  in
  let body =
    [
      for_ "kx" (ic 2) (ic 3)
        [
          for_ "ky" (ic 2) (ic n2)
            [
              set_el "du1" ky
                (el "u1" (uix kx (ky +! ic 1) 1) -% el "u1" (uix kx (ky -! ic 1) 1));
              set_el "du2" ky
                (el "u2" (uix kx (ky +! ic 1) 1) -% el "u2" (uix kx (ky -! ic 1) 1));
              set_el "du3" ky
                (el "u3" (uix kx (ky +! ic 1) 1) -% el "u3" (uix kx (ky -! ic 1) 1));
              update "u1" ("a11", "a12", "a13");
              update "u2" ("a21", "a22", "a23");
              update "u3" ("a31", "a32", "a33");
            ];
        ];
    ]
  in
  {
    number = 8;
    title = "ADI integration";
    classification = Vectorizable;
    kernel =
      {
        name = "LL8";
        decls =
          farrays
            [
              ("u1", usize);
              ("u2", usize);
              ("u3", usize);
              ("du1", n2 + 1);
              ("du2", n2 + 1);
              ("du3", n2 + 1);
            ];
        body;
      };
    inputs =
      {
        float_data =
          [
            fdata ~seed "u1" usize 0.1 1.0;
            fdata ~seed "u2" usize 0.1 1.0;
            fdata ~seed "u3" usize 0.1 1.0;
          ];
        int_data = [];
        float_scalars =
          [
            ("a11", 0.1); ("a12", 0.2); ("a13", 0.3);
            ("a21", 0.4); ("a22", 0.5); ("a23", 0.6);
            ("a31", 0.7); ("a32", 0.8); ("a33", 0.9);
            ("sig", 0.05);
          ];
        int_scalars = [];
      };
  }

let loop9 ?(n = 64) () =
  let seed = 1009 in
  let ld = 13 in
  let i = iv "i" in
  let px j = el "px" (idx2 ld (ic j) i) in
  let body =
    [
      for_ "i" (ic 1) (ic n)
        [
          set_el "px" (idx2 ld (ic 1) i)
            ((fv "dm28" *% px 13)
            +% (fv "dm27" *% px 12)
            +% (fv "dm26" *% px 11)
            +% (fv "dm25" *% px 10)
            +% (fv "dm24" *% px 9)
            +% (fv "dm23" *% px 8)
            +% (fv "dm22" *% px 7)
            +% (fv "c0" *% (px 5 +% px 6))
            +% px 3);
        ];
    ]
  in
  {
    number = 9;
    title = "integrate predictors";
    classification = Vectorizable;
    kernel =
      { name = "LL9"; decls = farrays [ ("px", (ld * n) + ld) ]; body };
    inputs =
      {
        float_data = [ fdata ~seed "px" ((ld * n) + ld) 0.1 1.0 ];
        int_data = [];
        float_scalars =
          [
            ("dm22", 0.1); ("dm23", 0.2); ("dm24", 0.3); ("dm25", 0.4);
            ("dm26", 0.5); ("dm27", 0.6); ("dm28", 0.7); ("c0", 0.8);
          ];
        int_scalars = [];
      };
  }

let loop10 ?(n = 64) () =
  let seed = 1010 in
  let ld = 14 in
  let i = iv "i" in
  let pxi j = idx2 ld (ic j) i in
  let names = [| "ar"; "br"; "cr" |] in
  let inner =
    let stmts = ref [ setf "ar" (el "cx" (idx2 ld (ic 5) i)) ] in
    let prev = ref 0 in
    for j = 5 to 12 do
      let cur = (!prev + 1) mod 3 in
      stmts := setf names.(cur) (fv names.(!prev) -% el "px" (pxi j)) :: !stmts;
      stmts := set_el "px" (pxi j) (fv names.(!prev)) :: !stmts;
      prev := cur
    done;
    stmts :=
      set_el "px" (pxi 14) (fv names.(!prev) -% el "px" (pxi 13)) :: !stmts;
    stmts := set_el "px" (pxi 13) (fv names.(!prev)) :: !stmts;
    List.rev !stmts
  in
  let body = [ for_ "i" (ic 1) (ic n) inner ] in
  {
    number = 10;
    title = "difference predictors";
    classification = Vectorizable;
    kernel =
      {
        name = "LL10";
        decls = farrays [ ("px", (ld * n) + ld); ("cx", (ld * n) + ld) ];
        body;
      };
    inputs =
      {
        float_data =
          [
            fdata ~seed "px" ((ld * n) + ld) 0.1 1.0;
            fdata ~seed "cx" ((ld * n) + ld) 0.1 1.0;
          ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop11 ?(n = 256) () =
  let seed = 1011 in
  let body =
    [
      set_el "x" (ic 1) (el "y" (ic 1));
      for_ "k" (ic 2) (ic n)
        [ set_el "x" (iv "k") (el "x" (iv "k" -! ic 1) +% el "y" (iv "k")) ];
    ]
  in
  {
    number = 11;
    title = "first sum";
    classification = Scalar;
    kernel = { name = "LL11"; decls = farrays [ ("x", n); ("y", n) ]; body };
    inputs =
      {
        float_data = [ fdata ~seed "y" n 0.0 0.01 ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop12 ?(n = 256) () =
  let seed = 1012 in
  let body =
    [
      for_ "k" (ic 1) (ic n)
        [ set_el "x" (iv "k") (el "y" (iv "k" +! ic 1) -% el "y" (iv "k")) ];
    ]
  in
  {
    number = 12;
    title = "first difference";
    classification = Vectorizable;
    kernel =
      { name = "LL12"; decls = farrays [ ("x", n); ("y", n + 1) ]; body };
    inputs =
      {
        float_data = [ fdata ~seed "y" (n + 1) 0.1 1.0 ];
        int_data = [];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop13 ?(n = 64) () =
  let seed = 1013 in
  let g = 32 in
  let mask = g - 1 in
  let hld = g + 2 in
  let ip = iv "ip" in
  let pix j = idx2 4 (ic j) ip in
  let p j = el "p" (pix j) in
  let hix = idx2 hld (iv "i2" +! ic 1) (iv "j2" +! ic 1) in
  let body =
    [
      for_ "ip" (ic 1) (ic n)
        [
          seti "i1" (Itrunc (p 1));
          seti "j1" (Itrunc (p 2));
          seti "i1" (ic 1 +! Iand (iv "i1", ic mask));
          seti "j1" (ic 1 +! Iand (iv "j1", ic mask));
          set_el "p" (pix 3) (p 3 +% el "b" (idx2 g (iv "i1") (iv "j1")));
          set_el "p" (pix 4) (p 4 +% el "c" (idx2 g (iv "i1") (iv "j1")));
          set_el "p" (pix 1) (p 1 +% p 3);
          set_el "p" (pix 2) (p 2 +% p 4);
          seti "i2" (Iand (Itrunc (p 1), ic mask));
          seti "j2" (Iand (Itrunc (p 2), ic mask));
          set_el "p" (pix 1) (p 1 +% el "y" (iv "i2" +! ic (g / 2)));
          set_el "p" (pix 2) (p 2 +% el "z" (iv "j2" +! ic (g / 2)));
          seti "i2" (iv "i2" +! Iload ("e", iv "i2" +! ic (g / 2)));
          seti "j2" (iv "j2" +! Iload ("f", iv "j2" +! ic (g / 2)));
          set_el "h" hix (el "h" hix +% fc 1.0);
        ];
    ]
  in
  {
    number = 13;
    title = "2-D particle in cell";
    classification = Scalar;
    kernel =
      {
        name = "LL13";
        decls =
          {
            float_arrays =
              [
                ("p", 4 * n);
                ("b", (g * g) + g);
                ("c", (g * g) + g);
                ("h", (hld * hld) + g);
                ("y", 2 * g);
                ("z", 2 * g);
              ];
            int_arrays = [ ("e", 2 * g); ("f", 2 * g) ];
          };
        body;
      };
    inputs =
      {
        float_data =
          [
            (let name = "p" in
             (name, Data.positions ~seed ~name ~n:(4 * n) ~limit:(float_of_int (2 * g))));
            fdata ~seed "b" ((g * g) + g) 0.0 0.1;
            fdata ~seed "c" ((g * g) + g) 0.0 0.1;
            fdata ~seed "y" (2 * g) 0.0 1.0;
            fdata ~seed "z" (2 * g) 0.0 1.0;
          ];
        int_data = [ idata ~seed "e" (2 * g) 2; idata ~seed "f" (2 * g) 2 ];
        float_scalars = [];
        int_scalars = [];
      };
  }

let loop14 ?(n = 64) () =
  let seed = 1014 in
  let gb = 64 in
  let mask = gb - 1 in
  let k = iv "k" in
  let irk = Iload ("ir", k) in
  let body =
    [
      for_ "k" (ic 1) (ic n)
        [
          set_el "vx" k (fc 0.0);
          set_el "xx" k (fc 0.0);
          set_iel "ix" k (Itrunc (el "grd" k));
          set_el "xi" k (Of_int (Iload ("ix", k)));
          set_el "ex1" k (el "ex" (Iload ("ix", k)));
          set_el "dex1" k (el "dex" (Iload ("ix", k)));
        ];
      for_ "k" (ic 1) (ic n)
        [
          set_el "vx" k
            (el "vx" k
            +% el "ex1" k
            +% ((el "xx" k -% el "xi" k) *% el "dex1" k));
          set_el "xx" k (el "xx" k +% el "vx" k +% fv "flx");
          set_iel "ir" k (Itrunc (el "xx" k));
          set_el "rx" k (el "xx" k -% Of_int irk);
          set_iel "ir" k (Iand (irk, ic mask) +! ic 1);
          set_el "xx" k (el "rx" k +% Of_int irk);
        ];
      for_ "k" (ic 1) (ic n)
        [
          set_el "rh" irk ((el "rh" irk +% fc 1.0) -% el "rx" k);
          set_el "rh" (irk +! ic 1) (el "rh" (irk +! ic 1) +% el "rx" k);
        ];
    ]
  in
  {
    number = 14;
    title = "1-D particle in cell";
    classification = Scalar;
    kernel =
      {
        name = "LL14";
        decls =
          {
            float_arrays =
              [
                ("grd", n); ("vx", n); ("xx", n); ("xi", n); ("ex1", n);
                ("dex1", n); ("rx", n); ("ex", gb); ("dex", gb);
                ("rh", gb + 2);
              ];
            int_arrays = [ ("ix", n); ("ir", n) ];
          };
        body;
      };
    inputs =
      {
        float_data =
          [
            fdata ~seed "grd" n 1.0 (float_of_int (gb - 4));
            fdata ~seed "ex" gb 0.5 1.0;
            fdata ~seed "dex" gb 0.001 0.002;
          ];
        int_data = [];
        float_scalars = [ ("flx", 1.5) ];
        int_scalars = [];
      };
  }

(* -- collections ----------------------------------------------------------- *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let constructors =
  [|
    loop1; loop2; loop3; loop4; loop5; loop6; loop7; loop8; loop9; loop10;
    loop11; loop12; loop13; loop14;
  |]

let default_sizes =
  [| 100; 64; 256; 100; 256; 24; 100; 15; 64; 64; 256; 256; 64; 64 |]

let rec pow2_at_least k = if k <= 1 then 1 else 2 * pow2_at_least ((k + 1) / 2)

let scaled_n ~scale number =
  let base = default_sizes.(number - 1) in
  match number with
  | 2 -> pow2_at_least (base * scale)
  | 6 ->
      (* the general linear recurrence's trace grows quadratically in [n];
         scale the problem size by sqrt(scale) so its trace grows by
         roughly [scale] like every other loop's *)
      base * max 1 (int_of_float (sqrt (float_of_int scale)))
  | _ -> base * scale

let build ~scale number =
  if scale = 1 then constructors.(number - 1) ()
  else constructors.(number - 1) ~n:(scaled_n ~scale number) ()

let all_lock = Mutex.create ()
let all_memo = ref None
let global_scale = ref 1

let set_scale s =
  if s < 1 then invalid_arg "Livermore.set_scale: scale must be >= 1";
  with_lock all_lock (fun () ->
      if !all_memo <> None && !global_scale <> s then
        invalid_arg "Livermore.set_scale: loop collections already built";
      global_scale := s)

let scale () = with_lock all_lock (fun () -> !global_scale)

let all () =
  with_lock all_lock (fun () ->
      match !all_memo with
      | Some loops -> loops
      | None ->
          let loops =
            List.init 14 (fun i -> build ~scale:!global_scale (i + 1))
          in
          all_memo := Some loops;
          loops)

let scaled_lock = Mutex.create ()
let scaled_memo : (int * int, loop) Hashtbl.t = Hashtbl.create 16

let scaled ?(scale = 1) number =
  if number < 1 || number > 14 then
    invalid_arg "Livermore.scaled: loop number must be in 1..14";
  if scale < 1 then invalid_arg "Livermore.scaled: scale must be >= 1";
  with_lock scaled_lock (fun () ->
      match Hashtbl.find_opt scaled_memo (number, scale) with
      | Some l -> l
      | None ->
          let l = build ~scale number in
          Hashtbl.add scaled_memo (number, scale) l;
          l)

let loop n =
  if n < 1 || n > 14 then invalid_arg "Livermore.loop: n must be in 1..14";
  List.nth (all ()) (n - 1)

let of_class c = List.filter (fun l -> l.classification = c) (all ())
let scalar_loops () = of_class Scalar
let vectorizable_loops () = of_class Vectorizable

(* -- compilation / trace caches ------------------------------------------- *)

let compiled_lock = Mutex.create ()

let compiled_cache : (int * string, Codegen.compiled) Hashtbl.t =
  Hashtbl.create 16

let cache_key l =
  (* Default-sized loops are cached by number; custom-sized loops get a key
     that includes the array sizes so they do not collide. *)
  let sizes =
    List.map
      (fun (name, n) -> Printf.sprintf "%s:%d" name n)
      (l.kernel.decls.float_arrays @ l.kernel.decls.int_arrays)
  in
  (l.number, String.concat "," sizes)

let compiled l =
  let key = cache_key l in
  with_lock compiled_lock (fun () ->
      match Hashtbl.find_opt compiled_cache key with
      | Some c -> c
      | None ->
          let c = Codegen.compile l.kernel in
          Hashtbl.add compiled_cache key c;
          c)

(* Dynamic traces are memoized process-wide in the domain-safe
   {!Trace_cache}, so repeated lookups — including ones racing from
   {!Mfu_util.Pool} worker domains — share one physical array per key. *)

(* The CPU's default 2M-step guard is sized for the default problem sizes;
   scaled workloads need room proportional to their data. Every kernel's
   dynamic instruction count is within a small constant of its total array
   footprint (loop 6's quadratic trace walks its n^2 matrix), so a
   data-proportional budget stays a real non-termination guard. *)
let step_budget l =
  let data =
    List.fold_left (fun acc (_, a) -> acc + Array.length a) 0 l.inputs.float_data
  in
  max 2_000_000 (500 * data)

let trace l =
  let number, sizes = cache_key l in
  Trace_cache.find_or_generate ~number ~sizes ~kind:Trace_cache.Raw (fun () ->
      (Codegen.run ~max_instructions:(step_budget l) (compiled l) l.inputs)
        .Cpu.trace)

let trace_digest l = Mfu_exec.Trace_io.digest (trace l)

let scheduled_trace l =
  let number, sizes = cache_key l in
  Trace_cache.find_or_generate ~number ~sizes ~kind:Trace_cache.Scheduled
    (fun () ->
      let c = compiled l in
      let latencies = Mfu_isa.Fu.cray1_latencies ~memory:11 ~branch:5 in
      let program =
        Mfu_asm.Scheduler.schedule ~latencies c.Mfu_kern.Codegen.program
      in
      let memory =
        Mfu_kern.Layout.initial_memory c.Mfu_kern.Codegen.layout l.inputs
      in
      (Cpu.run ~program ~memory ()).Cpu.trace)
