(* Exact steady-state fast-forward.

   A loop trace is periodic after warm-up: the packed-trace period finder
   ({!Mfu_exec.Packed.period}) proves that entries repeat with period P and
   a uniform per-period address stride d. The simulators are deterministic
   machines whose state refers to absolute time only through differences
   and to absolute addresses only through equality (the RUU's only
   through its live-store relation, so it runs on addresses relabelled
   by that relation: {!Mfu_exec.Packed.relabel}). So if the complete
   machine state — normalized by the current cycle and by the current
   period's address offset — is identical at two iteration boundaries
   b_j and b_k, the evolution from b_k replays the evolution from b_j
   shifted by (t_k - t_j) cycles and (k - j)*d in addresses, period for
   period, for as long as the trace stays periodic.

   The driver therefore runs the real simulation once with a probe that
   fingerprints the normalized state at each boundary. On the first repeat
   (j, k) it skips K = R*(k - j) whole periods in closed form: [fire]
   returns K*P, the walker advances its trace cursor from b_k to
   b_k + K*P and, from then on, reads every memory address lowered by
   K*d. The entries it reads after the jump are literally the entries
   the machine would have seen at periods k, k+1, ..., so the rest of the
   run is the true run's tail translated by R*(t_k - t_j) cycles. Times
   stay absolute; only the cursor and the address bias move:

     cycles       = walk.cycles + R * (t_k - t_j)
     metrics      = walk.metrics + R * (M_k - M_j)

   where M_j, M_k are snapshots of the caller's metrics taken by the
   probe. The walker counts every trace entry as an instruction either
   way. If no repeat is found within the probe budget the walk simply
   completes — the fallback costs nothing beyond the fingerprints. *)

module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics

type probe = {
  period : int;
  stride : int;
  mutable next_pos : int;
  mutable addr_off : int;
  mutable fire : pos:int -> time:int -> fp:int list -> int;
}

let null_fire ~pos:_ ~time:_ ~fp:_ = 0
let shift pr skip = skip / pr.period * pr.stride

(* A simulator position that passed [next_pos] without landing on it (a
   cycle-stepped window crossed the boundary mid-cycle): skip boundaries
   until the next one is ahead again. Missed boundaries only delay
   detection; they never affect correctness. *)
let missed pr pos =
  while pr.next_pos <= pos do
    pr.next_pos <- pr.next_pos + pr.period;
    pr.addr_off <- pr.addr_off + pr.stride
  done

(* Boundaries fingerprinted before giving up on detection. Livermore-style
   loops repeat their state within a handful of iterations; a trace whose
   state has not recurred after this many boundaries is treated as
   aperiodic and simulated in full. *)
let budget = 64

type match_info = {
  m_dt : int;  (** t_k - t_j *)
  m_snap_low : Metrics.t option;
  m_snap_high : Metrics.t option;
  m_repeats : int;  (** R: how many (k - j)-period chunks are skipped *)
}

(* Observability for tests and reports: how often runs telescoped vs fell
   back. Domain-safe; never consulted by the simulation itself. *)
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
   at boundaries), the fingerprints seen so far, and the match once
   found. *)
type detector = {
  d_probe : probe;
  d_metrics : Metrics.t option;
  d_seen : (int * int * Metrics.t option) Fp_table.t;
  d_p_start : int;
  d_p_len : int;
  d_p_periods : int;
  d_margin : int;  (** trailing periods kept out of the skip *)
  mutable d_found : match_info option;
}

(* How many [c]-period chunks a repeat found at boundary [m] can skip
   without its final periods reaching the margin (0: none). *)
let repeats det ~m ~c = max 0 ((det.d_p_periods - det.d_margin - m) / c)

(* Record the fingerprint at boundary [pos]; on a repeat that can skip,
   remember it, stop probing and return the entries to jump over. *)
let detector_fire det ~pos ~time ~fp =
  let pr = det.d_probe in
  let m = (pos - det.d_p_start) / det.d_p_len in
  let skipped =
    match Fp_table.find_opt det.d_seen fp with
    | Some (mj, tj, snapj) ->
        let c = m - mj in
        let r = repeats det ~m ~c in
        if r >= 1 then
          det.d_found <-
            Some
              {
                m_dt = time - tj;
                m_snap_low = snapj;
                m_snap_high = Option.map Metrics.snapshot det.d_metrics;
                m_repeats = r;
              };
        r * c
    | None ->
        Fp_table.add det.d_seen fp
          (m, time, Option.map Metrics.snapshot det.d_metrics);
        0
  in
  if skipped > 0 || m >= budget || m >= det.d_p_periods then
    pr.next_pos <- max_int
  else begin
    pr.next_pos <- pr.next_pos + det.d_p_len;
    pr.addr_off <- pr.addr_off + pr.stride
  end;
  skipped * det.d_p_len

let make_detector ~metrics ~lookahead (pd : Packed.period) =
  let det =
    {
      d_probe =
        {
          period = pd.Packed.p_len;
          stride = pd.Packed.p_stride;
          next_pos = pd.Packed.p_start;
          addr_off = 0;
          fire = null_fire;
        };
      d_metrics = metrics;
      d_seen = Fp_table.create 97;
      d_p_start = pd.Packed.p_start;
      d_p_len = pd.Packed.p_len;
      d_p_periods = pd.Packed.p_periods;
      (* A simulator that looks [lookahead] entries past its current
         position (an instruction buffer holding the next [stations]
         entries) behaves generically only while that window stays inside
         the periodic region: its final periods see the epilogue (or the
         end of the trace) through the buffer and must be walked, not
         jumped over. Shrink the usable region by the lookahead, rounded
         up to whole periods. *)
      d_margin = (lookahead + pd.Packed.p_len - 1) / pd.Packed.p_len;
      d_found = None;
    }
  in
  det.d_probe.fire <- (fun ~pos ~time ~fp -> detector_fire det ~pos ~time ~fp);
  det

let run ?metrics ?(lookahead = 0) ?min_repeat packed sim =
  match Packed.period packed with
  | None ->
      Atomic.incr n_aperiodic;
      sim ~metrics ~probe:None packed
  | Some pd -> (
      let det = make_detector ~metrics ~lookahead pd in
      (* The earliest possible repeat, boundaries 0 and [c], skips at
         least as much as any later one; if even it cannot skip, no
         repeat can and the probe would be pure cost. *)
      let c = match min_repeat with Some f -> f packed pd | None -> 1 in
      if c > budget || repeats det ~m:c ~c = 0 then begin
        Atomic.incr n_gated;
        sim ~metrics ~probe:None packed
      end
      else
        let res = sim ~metrics ~probe:(Some det.d_probe) packed in
        match det.d_found with
        | None ->
            Atomic.incr n_fallback;
            res
        | Some info ->
            Atomic.incr n_telescoped;
            Option.iter
              (fun m ->
                Metrics.add_scaled m
                  ~hi:(Option.get info.m_snap_high)
                  ~lo:(Option.get info.m_snap_low)
                  ~times:info.m_repeats)
              metrics;
            {
              res with
              Sim_types.cycles =
                res.Sim_types.cycles + (info.m_repeats * info.m_dt);
            })
