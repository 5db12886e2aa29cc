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
   (j, k) it stops, skips K = R*(k - j) whole periods in closed form, and
   re-simulates a short *splice* ({!Mfu_exec.Packed.splice}) — the
   prefix [0, b_k) followed by the suffix from b_k + K*P with memory
   addresses shifted down by K*d. The shifted suffix is literally the
   address stream the machine would have seen at periods k, k+1, ...,
   so the splice run's tail is the true run's tail translated by
   R*(t_k - t_j) cycles:

     cycles       = splice.cycles + R * (t_k - t_j)
     metrics      = splice.metrics + R * (M_k - M_j)
     instructions = splice.instructions + K * P

   where M_j, M_k are metric snapshots taken by the probe. If no repeat is
   found within the probe budget the first run simply completes — the
   fallback costs nothing beyond the fingerprints. *)

module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics

exception Stop

type probe = {
  period : int;
  stride : int;
  mutable next_pos : int;
  mutable addr_off : int;
  mutable fire : pos:int -> time:int -> fp:int list -> unit;
}

let null_fire ~pos:_ ~time:_ ~fp:_ = ()

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

(* Skip at least this many whole periods, or complete the run instead:
   below this the splice re-simulation would cost more than it saves. *)
let min_skip = 2

(* Telescope only when the skipped entries cover at least half the trace:
   the splice re-simulates everything that is not skipped, so a small skip
   (a short periodic window inside a long trace) would roughly double the
   work instead of saving any. *)
let worthwhile ~n ~skip = 2 * skip >= n

type match_info = {
  m_low : int;  (** boundary index j of the earlier state occurrence *)
  m_high : int;  (** boundary index k of the repeat *)
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

(* Detection state: the probe it feeds, the scratch metrics the
   detection run accumulates into (snapshotted at boundaries), the
   fingerprints seen so far, and the match once found. *)
type detector = {
  d_probe : probe;
  d_scratch : Metrics.t option;
  d_seen : (int * int * Metrics.t option) Fp_table.t;
  d_p_start : int;
  d_p_len : int;
  d_p_stride : int;
  d_p_periods : int;
  d_n : int;  (** packed trace length, for the [worthwhile] test *)
  d_margin : int;  (** trailing periods kept out of the skip *)
  mutable d_found : match_info option;
}

(* How many [c]-period chunks a repeat found at boundary [m] would skip,
   or 0 when that skip fails the tests. *)
let repeats det ~m ~c =
  let r = (det.d_p_periods - det.d_margin - m) / c in
  if
    r >= 1
    && r * c >= min_skip
    && worthwhile ~n:det.d_n ~skip:(r * c * det.d_p_len)
  then r
  else 0

(* Record the fingerprint at boundary [pos]; on a repeat worth
   telescoping, remember it and abandon the detection run. *)
let detector_fire det ~pos ~time ~fp =
  let pr = det.d_probe in
  let m = (pos - det.d_p_start) / det.d_p_len in
  (match Fp_table.find_opt det.d_seen fp with
  | Some (mj, tj, snapj) ->
      let r = repeats det ~m ~c:(m - mj) in
      if r >= 1 then begin
        det.d_found <-
          Some
            {
              m_low = mj;
              m_high = m;
              m_dt = time - tj;
              m_snap_low = snapj;
              m_snap_high = Option.map Metrics.snapshot det.d_scratch;
              m_repeats = r;
            };
        raise_notrace Stop
      end
  | None ->
      Fp_table.add det.d_seen fp
        (m, time, Option.map Metrics.snapshot det.d_scratch));
  if m >= budget || m >= det.d_p_periods then pr.next_pos <- max_int
  else begin
    pr.next_pos <- pr.next_pos + det.d_p_len;
    pr.addr_off <- pr.addr_off + det.d_p_stride
  end

let make_detector ~metrics ~lookahead (pd : Packed.period) ~n =
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
      d_scratch = (if metrics then Some (Metrics.create ()) else None);
      d_seen = Fp_table.create 97;
      d_p_start = pd.Packed.p_start;
      d_p_len = pd.Packed.p_len;
      d_p_stride = pd.Packed.p_stride;
      d_p_periods = pd.Packed.p_periods;
      d_n = n;
      (* A simulator that looks [lookahead] entries past its current
         position (an instruction buffer holding the next [stations]
         entries) behaves generically only while that window stays inside
         the periodic region: its final periods see the epilogue (or the
         end of the trace) through the buffer and must be re-simulated in
         the splice, not telescoped. Shrink the usable region by the
         lookahead, rounded up to whole periods. *)
      d_margin = (lookahead + pd.Packed.p_len - 1) / pd.Packed.p_len;
      d_found = None;
    }
  in
  det.d_probe.fire <- (fun ~pos ~time ~fp -> detector_fire det ~pos ~time ~fp);
  det

(* A repeat was found: build the splice, rerun the simulator on it without
   a probe, and combine in closed form. *)
let telescope det ~metrics ~packed ~sim =
  Atomic.incr n_telescoped;
  let info = Option.get det.d_found in
  let c = info.m_high - info.m_low in
  let keep = det.d_p_start + (info.m_high * det.d_p_len) in
  let skip = info.m_repeats * c * det.d_p_len in
  let shift = info.m_repeats * c * det.d_p_stride in
  let res =
    sim ~metrics ~probe:None (Packed.splice packed ~keep ~skip ~shift)
  in
  Option.iter
    (fun m ->
      Metrics.add_scaled m
        ~hi:(Option.get info.m_snap_high)
        ~lo:(Option.get info.m_snap_low)
        ~times:info.m_repeats)
    metrics;
  {
    Sim_types.cycles = res.Sim_types.cycles + (info.m_repeats * info.m_dt);
    instructions = res.Sim_types.instructions + skip;
  }

let run ?metrics ?(lookahead = 0) ?min_repeat packed sim =
  match Packed.period packed with
  | None ->
      Atomic.incr n_aperiodic;
      sim ~metrics ~probe:None packed
  | Some pd ->
      if pd.Packed.p_periods < min_skip + 2 then begin
        Atomic.incr n_fallback;
        sim ~metrics ~probe:None packed
      end
      else begin
        let det =
          make_detector ~metrics:(metrics <> None) ~lookahead pd
            ~n:(Packed.length packed)
        in
        (* The earliest possible repeat, boundaries 0 and [c], skips at
           least as much as any later one; if even it fails the tests,
           no repeat can telescope and the probe would be pure cost. *)
        let c = match min_repeat with Some f -> f packed pd | None -> 1 in
        if c > budget || repeats det ~m:c ~c = 0 then begin
          Atomic.incr n_gated;
          sim ~metrics ~probe:None packed
        end
        else
          match sim ~metrics:det.d_scratch ~probe:(Some det.d_probe) packed with
          | result ->
              (* no repeat worth telescoping: the detection run is the full
                 simulation; fold its scratch counters into the caller's *)
              Atomic.incr n_fallback;
              Option.iter
                (fun m ->
                  Metrics.add_scaled m
                    ~hi:(Option.get det.d_scratch)
                    ~lo:(Metrics.create ()) ~times:1)
                metrics;
              result
          | exception Stop -> telescope det ~metrics ~packed ~sim
      end
