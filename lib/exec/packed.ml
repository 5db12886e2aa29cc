module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Config = Mfu_isa.Config
module Int_table = Mfu_util.Int_table

let kind_plain = 0
let kind_load = 1
let kind_store = 2
let kind_taken = 3
let kind_untaken = 4

type period = {
  p_start : int;
  p_len : int;
  p_stride : int;
  p_periods : int;
}

type t = {
  n : int;
  fu : int array;
  dest : int array;
  src_off : int array;
  src_idx : int array;
  kind : Bytes.t;
  addr : int array;
  parcels : int array;
  vl : int array;
  static_index : int array;
  max_srcs : int;
  memo : memo;
}

(* What is derived from a pack once and kept with it: its period, and
   (for an original pack) its live-store distance cuts and the relabelled
   packs built so far, keyed by cut count ([None]: the pack itself, kept
   out of its own memo so that no pack refers to itself). Guarded by
   [memo_lock]; the values are computed outside it, so two domains may
   both compute one, and either result is the same. *)
and memo = {
  mutable period : period option option;
  mutable cuts : int array option;
  mutable labellings : (int * t option) list;
}

let fresh_memo () = { period = None; cuts = None; labellings = [] }
let memo_lock = Mutex.create ()

let with_memo f =
  Mutex.lock memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_lock) f

let length t = t.n
let kind t i = Char.code (Bytes.unsafe_get t.kind i)
let is_branch t i = kind t i >= kind_taken
let is_load t i = kind t i = kind_load
let is_store t i = kind t i = kind_store
let is_mem t i = let k = kind t i in k = kind_load || k = kind_store
let produces_result t i = t.dest.(i) >= 0

let of_trace (tr : Trace.t) =
  let n = Array.length tr in
  let total_srcs = ref 0 in
  let max_srcs = ref 0 in
  Array.iter
    (fun (e : Trace.entry) ->
      let k = List.length e.srcs in
      total_srcs := !total_srcs + k;
      if k > !max_srcs then max_srcs := k)
    tr;
  let p =
    {
      n;
      fu = Array.make n 0;
      dest = Array.make n (-1);
      src_off = Array.make (n + 1) 0;
      src_idx = Array.make !total_srcs 0;
      kind = Bytes.make n '\000';
      addr = Array.make n (-1);
      parcels = Array.make n 0;
      vl = Array.make n 1;
      static_index = Array.make n 0;
      max_srcs = !max_srcs;
      memo = fresh_memo ();
    }
  in
  let off = ref 0 in
  Array.iteri
    (fun i (e : Trace.entry) ->
      p.fu.(i) <- Fu.index e.fu;
      (match e.dest with Some d -> p.dest.(i) <- Reg.index d | None -> ());
      p.src_off.(i) <- !off;
      List.iter
        (fun r ->
          p.src_idx.(!off) <- Reg.index r;
          incr off)
        e.srcs;
      let k, a =
        match e.kind with
        | Trace.Plain -> (kind_plain, -1)
        | Trace.Load a -> (kind_load, a)
        | Trace.Store a -> (kind_store, a)
        | Trace.Taken_branch -> (kind_taken, -1)
        | Trace.Untaken_branch -> (kind_untaken, -1)
      in
      Bytes.set p.kind i (Char.chr k);
      p.addr.(i) <- a;
      p.parcels.(i) <- e.parcels;
      p.vl.(i) <- e.vl;
      p.static_index.(i) <- e.static_index)
    tr;
  p.src_off.(n) <- !off;
  p

(* -- period detection -------------------------------------------------------- *)

(* Two entries are congruent when every field matches except the effective
   address, which must differ by exactly [stride] (shared by every memory
   entry of the region — a uniform stride is what makes a whole period a
   pure address translation of the previous one, the property the
   steady-state telescoping relies on). *)
let entries_congruent t ~stride i j =
  t.fu.(i) = t.fu.(j)
  && t.dest.(i) = t.dest.(j)
  && Bytes.get t.kind i = Bytes.get t.kind j
  && t.parcels.(i) = t.parcels.(j)
  && t.vl.(i) = t.vl.(j)
  && t.static_index.(i) = t.static_index.(j)
  && t.src_off.(i + 1) - t.src_off.(i) = t.src_off.(j + 1) - t.src_off.(j)
  && (let oi = t.src_off.(i) and oj = t.src_off.(j) in
      let k = t.src_off.(i + 1) - oi in
      let rec eq s =
        s >= k || (t.src_idx.(oi + s) = t.src_idx.(oj + s) && eq (s + 1))
      in
      eq 0)
  &&
  if is_mem t i then t.addr.(j) - t.addr.(i) = stride
  else t.addr.(i) = t.addr.(j)

(* The address stride of candidate period [p] starting at [s]: the first
   memory entry of the body fixes it (0 when the body touches no memory);
   every other memory pair must then agree, checked by the region scan. *)
let region_stride t ~s ~p =
  let rec find i =
    if i >= s + p || i + p >= t.n then 0
    else if is_mem t i then t.addr.(i + p) - t.addr.(i)
    else find (i + 1)
  in
  find s

(* Longest run of congruent periods of length [p] starting at [s]:
   returns the number of complete periods in the maximal periodic region
   [s, s + periods*p). *)
let region_periods t ~s ~p ~stride =
  let rec scan i =
    if i + p >= t.n || not (entries_congruent t ~stride i (i + p)) then i + p
    else scan (i + 1)
  in
  if s + p > t.n then 0 else (scan s - s) / p

(* Detect the steady repeating body of a loop trace. Candidate period
   lengths come from the spacing of taken branches (the backedges); the
   first candidate whose full-field congruence scan yields at least two
   complete periods wins, so nested always-taken control flow falls back
   to a multiple of the inner spacing automatically. *)
let find_period t =
  if t.n < 8 then None
  else begin
    let taken = ref [] and count = ref 0 in
    (try
       for i = 0 to t.n - 1 do
         if kind t i = kind_taken then begin
           taken := i :: !taken;
           incr count;
           if !count > 9 then raise Exit
         end
       done
     with Exit -> ());
    match List.rev !taken with
    | [] | [ _ ] -> None
    | t0 :: rest ->
        let s = t0 + 1 in
        let rec try_candidates = function
          | [] -> None
          | tj :: rest ->
              let p = tj - t0 in
              let stride = region_stride t ~s ~p in
              let periods = region_periods t ~s ~p ~stride in
              if periods >= 2 then
                Some
                  {
                    p_start = s;
                    p_len = p;
                    p_stride = stride;
                    p_periods = periods;
                  }
              else try_candidates rest
        in
        try_candidates rest
  end

(* Period detection is an O(n) scan, so it runs once per pack and is
   kept with it. *)
let period (p : t) =
  match with_memo (fun () -> p.memo.period) with
  | Some r -> r
  | None ->
      let r = find_period p in
      with_memo (fun () -> p.memo.period <- Some r);
      r

(* -- live-store relabelling ------------------------------------------------- *)

(* Visit every memory entry [i], in trace order, with the latest earlier
   store [j] to its address (-1 if none) and the number of non-branch
   entries in [\[j, i)] ([max_int] if none). *)
let iter_prior_stores t f =
  let last = Int_table.create 256 (* address -> latest store index *)
  and last_rank = Int_table.create 256 (* address -> its non-branch rank *)
  and rank = ref 0 in
  for i = 0 to t.n - 1 do
    if is_mem t i then begin
      let a = t.addr.(i) in
      let j = Int_table.find last ~default:(-1) a in
      f i j
        (if j < 0 then max_int
         else !rank - Int_table.find last_rank ~default:0 a);
      if is_store t i then begin
        Int_table.set last a i;
        Int_table.set last_rank a !rank
      end
    end;
    if not (is_branch t i) then incr rank
  done

(* The distinct store distances, ascending: the horizons at which the
   labelling changes. *)
let distance_cuts t =
  let seen = Int_table.create 64 in
  iter_prior_stores t (fun _ j d -> if j >= 0 then Int_table.set seen d 0);
  let cuts = Array.make (Int_table.length seen) 0 in
  let k = ref 0 in
  Int_table.iter
    (fun d _ ->
      cuts.(!k) <- d;
      incr k)
    seen;
  Array.sort compare cuts;
  cuts

(* Labels of earlier entries are final when an entry is visited, so
   chains of in-horizon stores resolve in one pass. *)
let labels t ~horizon =
  let addr = Array.copy t.addr in
  iter_prior_stores t (fun i j d ->
      addr.(i) <- (if d < horizon then addr.(j) else i));
  addr

let covered = function None -> 0 | Some pd -> pd.p_len * pd.p_periods

let relabel t ~horizon =
  let cuts =
    match with_memo (fun () -> t.memo.cuts) with
    | Some c -> c
    | None ->
        let c = distance_cuts t in
        with_memo (fun () -> t.memo.cuts <- Some c);
        c
  in
  (* horizons between two consecutive cuts label alike: key the
     labelling by how many cuts lie below the horizon *)
  let k = ref 0 in
  while !k < Array.length cuts && cuts.(!k) < horizon do
    incr k
  done;
  let k = !k in
  match with_memo (fun () -> List.assoc_opt k t.memo.labellings) with
  | Some p -> Option.value p ~default:t
  | None ->
      let r = { t with addr = labels t ~horizon; memo = fresh_memo () } in
      let p =
        if covered (period r) > covered (period t) then Some r else None
      in
      with_memo (fun () -> t.memo.labellings <- (k, p) :: t.memo.labellings);
      Option.value p ~default:t

(* -- per-configuration lookup tables ---------------------------------------- *)

let latency_table config =
  Array.init Fu.count (fun i -> Config.latency config (Fu.of_index i))

let max_latency config =
  let m = ref (Config.branch_time config) in
  for i = 0 to Fu.count - 1 do
    let l = Config.latency config (Fu.of_index i) in
    if l > !m then m := l
  done;
  !m

let shared_unit = Array.init Fu.count (fun i -> Fu.is_shared_unit (Fu.of_index i))

(* -- the process-wide pack cache -------------------------------------------- *)

(* Keyed by the physical identity of the trace array: {!Mfu_loops.Trace_cache}
   hands out one shared array per (loop, sizes, kind), so the experiment
   engine and the sweep driver pack each workload exactly once per process.
   A bounded scan list keeps unknown (e.g. property-test) traces from
   growing the cache without bound; eviction drops the oldest entry. *)

let cache_capacity = 64
let cache_lock = Mutex.create ()
let cache : (Trace.t * t) list ref = ref []

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let cached (tr : Trace.t) =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match List.find_opt (fun (key, _) -> key == tr) !cache with
      | Some (_, p) -> p
      | None ->
          let p = of_trace tr in
          cache := take cache_capacity ((tr, p) :: !cache);
          p)

let cache_clear () =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () -> cache := [])
