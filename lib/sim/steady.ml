(* Exact steady-state fast-forward.

   A loop trace is periodic after warm-up: the packed-trace region finder
   ({!Mfu_exec.Packed.regions}) proves that, over each of its regions,
   entries repeat with period P and a uniform per-period address stride
   d. The simulators are deterministic machines whose state refers to
   absolute time only through differences and to absolute addresses only
   through equality (the RUU and the buffer machine only between accesses
   a window can hold at once, so they run on addresses relabelled by that
   relation: {!Mfu_exec.Packed.relabel}). So if the complete machine
   state — normalized by the current cycle and by the current period's
   address offset — is identical at two iteration boundaries b_j and b_k
   of a region, the evolution from b_k replays the evolution from b_j
   shifted by (t_k - t_j) cycles and (k - j)*d in addresses, period for
   period, for as long as the trace stays periodic.

   The driver therefore runs the real simulation once with a probe that
   fingerprints the normalized state at each boundary of one region at a
   time. On the first repeat (j, k) it skips K = R*(k - j) whole periods
   in closed form: [fire] returns K*P, the walker advances its trace
   cursor from b_k to b_k + K*P and, from then on, reads every memory
   address lowered by K*d more than before. The entries it reads after
   the jump are literally the entries the machine would have seen at
   periods k, k+1, ..., so the rest of the run is the true run's tail
   translated by R*(t_k - t_j) cycles. Times stay absolute; only the
   cursor and the address bias move. The probe then moves on to the next
   region, where the same argument holds for the translated walk, so the
   bias accumulates over the jumps (R_r, Δt_r, δ_r per region r):

     cycles       = walk.cycles + Σ R_r * Δt_r
     metrics      = walk.metrics + Σ R_r * (M_hi - M_lo)_r
     address bias = Σ R_r * c_r * δ_r

   where M_lo, M_hi are snapshots of the caller's metrics taken by the
   probe at the two matching boundaries. The walker counts every trace
   entry as an instruction either way. A region with no repeat within
   the probe budget is simply walked — the fallback costs nothing beyond
   the fingerprints. *)

module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics

type probe = {
  mutable next_pos : int;
  mutable addr_off : int;
  mutable bias : int;
  mutable fire : pos:int -> time:int -> fp:int list -> int;
  mutable missed : int -> unit;
}

(* Boundaries fingerprinted per region before giving up on it.
   Livermore-style loops repeat their state within a handful of
   iterations; a region whose state has not recurred after this many
   boundaries is walked in full. *)
let budget = 64

(* Observability for tests and reports: how many regions telescoped,
   fell back or were gated, and how many runs had none. Domain-safe;
   never consulted by the simulation itself. *)
let n_telescoped = Atomic.make 0
let n_fallback = Atomic.make 0
let n_aperiodic = Atomic.make 0
let n_gated = Atomic.make 0

type stats = { telescoped : int; fallback : int; aperiodic : int; gated : int }

let stats () =
  {
    telescoped = Atomic.get n_telescoped;
    fallback = Atomic.get n_fallback;
    aperiodic = Atomic.get n_aperiodic;
    gated = Atomic.get n_gated;
  }

let stats_summary s =
  Printf.sprintf "telescoped %d, fallback %d, aperiodic %d, gated %d"
    s.telescoped s.fallback s.aperiodic s.gated

let reset_stats () =
  Atomic.set n_telescoped 0;
  Atomic.set n_fallback 0;
  Atomic.set n_aperiodic 0;
  Atomic.set n_gated 0

(* Fingerprints seen so far. The polymorphic [Hashtbl.hash] reads only
   the first 10 list cells, which consecutive fingerprints of a large
   machine often share; this hash folds every word, so lookups stay
   constant-time. Equality is still structural. *)
module Fp_table = Hashtbl.Make (struct
  type t = int list

  let equal = ( = )
  let hash l = List.fold_left (fun h v -> (h * 31) + v) 0 l land max_int
end)

(* Detection state: the probe it feeds, the caller's metrics (snapshotted
   at boundaries), the regions still to probe, and for the armed region
   its fingerprints so far and the trailing periods kept out of a jump. *)
type detector = {
  d_probe : probe;
  d_metrics : Metrics.t option;
  d_lookahead : int;
  mutable d_todo : Packed.period list;
  mutable d_region : Packed.period;
  mutable d_margin : int;
  d_seen : (int * int * Metrics.t option) Fp_table.t;
  mutable d_jumps : int;
  mutable d_dt : int;  (** cycles the jumps skipped: sum of R * (t_k - t_j) *)
}

(* A simulator that looks [lookahead] entries past its current position
   (an instruction buffer holding the next [stations] entries) behaves
   generically only while that window stays inside the periodic region:
   its final periods see what follows (or the end of the trace) through
   the buffer and must be walked, not jumped over. The margin shrinks the
   usable region by the lookahead, rounded up to whole periods. *)
let margin ~lookahead (pd : Packed.period) =
  (lookahead + pd.Packed.p_len - 1) / pd.Packed.p_len

(* How many [c]-period chunks a repeat found at boundary [m] of region
   [pd] can skip without its final periods reaching the margin (0:
   none). *)
let repeats ~margin (pd : Packed.period) ~m ~c =
  max 0 ((pd.Packed.p_periods - margin - m) / c)

(* Arm the next region (or stop probing when none is left). *)
let arm det =
  let pr = det.d_probe in
  match det.d_todo with
  | [] -> pr.next_pos <- max_int
  | pd :: rest ->
      det.d_todo <- rest;
      det.d_region <- pd;
      det.d_margin <- margin ~lookahead:det.d_lookahead pd;
      Fp_table.reset det.d_seen;
      pr.next_pos <- pd.Packed.p_start;
      pr.addr_off <- 0

(* Move to the next boundary of the armed region, or to the next region
   once this one's periods or budget are spent. *)
let advance det =
  let pr = det.d_probe and pd = det.d_region in
  let m = ((pr.next_pos - pd.Packed.p_start) / pd.Packed.p_len) + 1 in
  if m > budget || m > pd.Packed.p_periods then arm det
  else begin
    pr.next_pos <- pr.next_pos + pd.Packed.p_len;
    pr.addr_off <- pr.addr_off + pd.Packed.p_stride
  end

(* A simulator position at or past [next_pos] (a cycle-stepped window
   crossed the boundary mid-cycle, or the next region starts where the
   walker already is): skip boundaries, across region ends, until the
   next one is ahead again. Missed boundaries only delay detection; they
   never affect correctness. *)
let missed det pos =
  while det.d_probe.next_pos <= pos do
    advance det
  done

(* Record the fingerprint at boundary [pos]; on a repeat that can skip,
   book the skipped cycles and metrics, accumulate the address bias, arm
   the next region and return the entries to jump over. Either way the
   next boundary then lies past the walker's position. *)
let fire det ~pos ~time ~fp =
  let pr = det.d_probe and pd = det.d_region in
  let m = (pos - pd.Packed.p_start) / pd.Packed.p_len in
  let skipped =
    match Fp_table.find_opt det.d_seen fp with
    | Some (mj, tj, snapj) ->
        let c = m - mj in
        let r = repeats ~margin:det.d_margin pd ~m ~c in
        if r >= 1 then begin
          det.d_jumps <- det.d_jumps + 1;
          det.d_dt <- det.d_dt + (r * (time - tj));
          Option.iter
            (fun mt ->
              Metrics.add_scaled mt ~hi:(Metrics.snapshot mt)
                ~lo:(Option.get snapj) ~times:r)
            det.d_metrics
        end;
        r * c
    | None ->
        Fp_table.add det.d_seen fp
          (m, time, Option.map Metrics.snapshot det.d_metrics);
        0
  in
  if skipped > 0 then begin
    pr.bias <- pr.bias + (skipped * pd.Packed.p_stride);
    arm det
  end;
  missed det (pos + (skipped * pd.Packed.p_len));
  skipped * pd.Packed.p_len

let run ?metrics ?(lookahead = 0) ?(min_repeat = fun _ _ -> 1) packed sim =
  (* The earliest possible repeat, boundaries 0 and [c], skips at least
     as much as any later one; if even it cannot skip, no repeat in the
     region can and probing it would be pure cost. *)
  let fits pd =
    let c = min_repeat packed pd in
    c <= budget && repeats ~margin:(margin ~lookahead pd) pd ~m:c ~c > 0
  in
  let todo, gated = List.partition fits (Packed.regions packed) in
  ignore (Atomic.fetch_and_add n_gated (List.length gated));
  match todo with
  | [] ->
      if gated = [] then Atomic.incr n_aperiodic;
      sim ~metrics ~probe:None packed
  | pd :: _ ->
      let det =
        {
          d_probe =
            {
              next_pos = max_int;
              addr_off = 0;
              bias = 0;
              fire = (fun ~pos:_ ~time:_ ~fp:_ -> 0);
              missed = ignore;
            };
          d_metrics = metrics;
          d_lookahead = lookahead;
          d_todo = todo;
          d_region = pd;
          d_margin = 0;
          d_seen = Fp_table.create 97;
          d_jumps = 0;
          d_dt = 0;
        }
      in
      det.d_probe.fire <- fire det;
      det.d_probe.missed <- missed det;
      arm det;
      let res = sim ~metrics ~probe:(Some det.d_probe) packed in
      ignore (Atomic.fetch_and_add n_telescoped det.d_jumps);
      ignore (Atomic.fetch_and_add n_fallback (List.length todo - det.d_jumps));
      { res with Sim_types.cycles = res.Sim_types.cycles + det.d_dt }
