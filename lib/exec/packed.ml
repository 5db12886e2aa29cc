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

(* What is derived from a pack once and kept with it: its periodic
   regions, and (for an original pack) its join distance cuts and the
   relabelled packs built so far, keyed by cut count ([None]: the pack
   itself, kept out of its own memo so that no pack refers to itself).
   Guarded by [memo_lock]; the values are computed outside it, so two
   domains may both compute one, and either result is the same. *)
and memo = {
  mutable regions : period list option;
  mutable cuts : int array option;
  mutable labellings : (int * t option) list;
}

let fresh_memo () = { regions = None; cuts = None; labellings = [] }
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

(* -- region detection ------------------------------------------------------- *)

(* The scans below are module-level recursive functions, not local
   closures: they run once per taken branch, and must not allocate. *)
let rec same_srcs t oi oj k =
  k = 0
  || t.src_idx.(oi) = t.src_idx.(oj)
     && same_srcs t (oi + 1) (oj + 1) (k - 1)

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
  && same_srcs t t.src_off.(i) t.src_off.(j)
       (t.src_off.(i + 1) - t.src_off.(i))
  &&
  if is_mem t i then t.addr.(j) - t.addr.(i) = stride
  else t.addr.(i) = t.addr.(j)

(* The address stride of candidate period [p] from entry [i] on: the
   first memory entry of the body fixes it (0 when the body touches no
   memory); every other memory pair must then agree, checked by the
   region scan. *)
let rec region_stride t ~stop ~p i =
  if i >= stop || i + p >= t.n then 0
  else if is_mem t i then t.addr.(i + p) - t.addr.(i)
  else region_stride t ~stop ~p (i + 1)

(* The first [i] whose entry is not congruent with the one [p] later. *)
let rec congruent_until t ~p ~stride i =
  if i + p >= t.n || not (entries_congruent t ~stride i (i + p)) then i
  else congruent_until t ~p ~stride (i + 1)

(* Longest run of congruent periods of length [p] starting at [s]:
   returns the number of complete periods in the maximal periodic region
   [s, s + periods*p). *)
let region_periods t ~s ~p ~stride =
  if s + p > t.n then 0 else (congruent_until t ~p ~stride s + p - s) / p

let rec next_taken t i =
  if i >= t.n || kind t i = kind_taken then i else next_taken t (i + 1)

(* Every maximal periodic region from taken branch [t0] on, in trace
   order. Candidate period lengths come from the spacing of taken
   branches (the backedges): the first of the next nine, [tj], whose
   full-field congruence scan yields at least two complete periods wins,
   so nested always-taken control flow falls back to a multiple of the
   inner spacing automatically. A region's last entry is again a taken
   branch, and the scan resumes there; a taken branch that starts no
   region hands over to the next one. *)
let rec regions_from t ~t0 ~tj ~tries acc =
  let s = t0 + 1 in
  if tj >= t.n || tries = 0 then
    let t0 = next_taken t s in
    if t0 >= t.n then List.rev acc
    else regions_from t ~t0 ~tj:(next_taken t (t0 + 1)) ~tries:9 acc
  else
    let p = tj - t0 in
    let stride = region_stride t ~stop:(s + p) ~p s in
    let periods = region_periods t ~s ~p ~stride in
    if periods >= 2 then
      let t0 = s + (periods * p) - 1 in
      regions_from t ~t0 ~tj:(next_taken t (t0 + 1)) ~tries:9
        ({ p_start = s; p_len = p; p_stride = stride; p_periods = periods }
        :: acc)
    else regions_from t ~t0 ~tj:(next_taken t (tj + 1)) ~tries:(tries - 1) acc

let find_regions t =
  let t0 = next_taken t 0 in
  if t.n < 8 || t0 >= t.n then []
  else regions_from t ~t0 ~tj:(next_taken t (t0 + 1)) ~tries:9 []

(* Region detection scans the trace, so it runs once per pack and is
   kept with it. *)
let regions (p : t) =
  match with_memo (fun () -> p.memo.regions) with
  | Some r -> r
  | None ->
      let r = find_regions p in
      with_memo (fun () -> p.memo.regions <- Some r);
      r

(* -- dependence relabelling ------------------------------------------------ *)

(* Visit the same-address pairs [j < i] that decide the labelling, with
   the number of non-branch entries in [\[j, i)]: every memory entry with
   the latest earlier store to its address (a forward pass), and every
   load with the next store to its address (a backward pass). Any other
   pair with a store in it is linked by a chain of visited pairs that lie
   no farther apart. Only per-address tables are kept. *)
let iter_joins t f =
  let store = Int_table.create 256 (* address -> nearest store so far *)
  and store_rank = Int_table.create 256 (* address -> its non-branch rank *)
  and rank = ref 0 in
  for i = 0 to t.n - 1 do
    if is_mem t i then begin
      let a = t.addr.(i) in
      let j = Int_table.find store ~default:(-1) a in
      if j >= 0 then f j i (!rank - Int_table.find store_rank ~default:0 a);
      if is_store t i then begin
        Int_table.set store a i;
        Int_table.set store_rank a !rank
      end
    end;
    if not (is_branch t i) then incr rank
  done;
  Int_table.clear store;
  Int_table.clear store_rank;
  for i = t.n - 1 downto 0 do
    if not (is_branch t i) then decr rank;
    let a = t.addr.(i) in
    if is_load t i then begin
      let j = Int_table.find store ~default:(-1) a in
      if j >= 0 then f i j (Int_table.find store_rank ~default:0 a - !rank)
    end
    else if is_store t i then begin
      Int_table.set store a i;
      Int_table.set store_rank a !rank
    end
  done

(* The distinct join distances, ascending: the horizons at which the
   labelling changes. *)
let distance_cuts t =
  let seen = Int_table.create 64 in
  iter_joins t (fun _ _ d -> Int_table.set seen d 0);
  let cuts = Array.make (Int_table.length seen) 0 in
  let k = ref 0 in
  Int_table.iter
    (fun d _ ->
      cuts.(!k) <- d;
      incr k)
    seen;
  Array.sort compare cuts;
  cuts

(* Union-find over the in-horizon joins; the smaller root wins, so a
   label is the first entry of its class, and every parent lies before
   its child. So the labels can overwrite the parents in trace order. *)
let labels t ~horizon =
  let root = Array.init t.n Fun.id in
  let rec find i =
    if root.(i) = i then i
    else begin
      root.(i) <- find root.(i);
      root.(i)
    end
  in
  iter_joins t (fun j i d ->
      if d < horizon then begin
        let a = find j and b = find i in
        if a < b then root.(b) <- a else root.(a) <- b
      end);
  for i = 0 to t.n - 1 do
    root.(i) <- (if is_mem t i then find i else -1)
  done;
  root

let covered t =
  List.fold_left (fun c pd -> c + (pd.p_len * pd.p_periods)) 0 (regions t)

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
      let p = if covered r > covered t then Some r else None in
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
