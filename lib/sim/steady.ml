(* Exact steady-state fast-forward.

   A loop trace is periodic after warm-up: the packed-trace period finder
   ({!Mfu_exec.Packed.period}) proves that entries repeat with period P and
   a uniform per-period address stride d. The simulators are deterministic
   machines whose state refers to absolute time only through differences
   and to absolute addresses only through equality, so if the complete
   machine state — normalized by the current cycle and by the current
   period's address offset — is identical at two iteration boundaries
   b_j and b_k, the evolution from b_k replays the evolution from b_j
   shifted by (t_k - t_j) cycles and (k - j)*d in addresses, period for
   period, for as long as the trace stays periodic.

   The driver therefore runs the real simulation once with a probe that
   fingerprints the normalized state at each boundary. On the first repeat
   (j, k) it stops, skips K = R*(k - j) whole periods in closed form, and
   re-simulates a short *splice* — the original prefix [0, b_k) followed by
   the suffix from b_k + K*P with memory addresses shifted down by K*d.
   The shifted suffix is literally the address stream the machine would
   have seen at periods k, k+1, ... (all addresses are original trace
   addresses, hence non-negative), so the splice run's tail is the true
   run's tail translated by R*(t_k - t_j) cycles:

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
  mutable lookahead : int;
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

let splice (trace : Mfu_exec.Trace.t) ~keep ~skip ~shift =
  let n = Array.length trace in
  Array.init
    (n - skip)
    (fun i ->
      if i < keep then trace.(i)
      else
        let e = trace.(i + skip) in
        match e.Mfu_exec.Trace.kind with
        | Mfu_exec.Trace.Load a ->
            { e with Mfu_exec.Trace.kind = Mfu_exec.Trace.Load (a - shift) }
        | Mfu_exec.Trace.Store a ->
            { e with Mfu_exec.Trace.kind = Mfu_exec.Trace.Store (a - shift) }
        | _ -> e)

(* Observability for tests and reports: how often runs telescoped vs fell
   back. Domain-safe; never consulted by the simulation itself. *)
let n_telescoped = Atomic.make 0
let n_fallback = Atomic.make 0
let n_aperiodic = Atomic.make 0

type stats = { telescoped : int; fallback : int; aperiodic : int }

let stats () =
  {
    telescoped = Atomic.get n_telescoped;
    fallback = Atomic.get n_fallback;
    aperiodic = Atomic.get n_aperiodic;
  }

let reset_stats () =
  Atomic.set n_telescoped 0;
  Atomic.set n_fallback 0;
  Atomic.set n_aperiodic 0

(* Detection state: the probe it feeds, the scratch metrics the
   detection run accumulates into (snapshotted at boundaries), the
   fingerprints seen so far, and the match once found. *)
type detector = {
  d_probe : probe;
  d_scratch : Metrics.t option;
  d_seen : (int list, int * int * Metrics.t option) Hashtbl.t;
  d_p_start : int;
  d_p_len : int;
  d_p_stride : int;
  d_p_periods : int;
  d_n : int;  (** packed trace length, for the [worthwhile] test *)
  mutable d_found : match_info option;
}

(* Record the fingerprint at boundary [pos]; on a repeat worth
   telescoping, remember it and abandon the detection run. *)
let detector_fire det ~pos ~time ~fp =
  let pr = det.d_probe in
  let m = (pos - det.d_p_start) / det.d_p_len in
  (match Hashtbl.find_opt det.d_seen fp with
  | Some (mj, tj, snapj) ->
      let c = m - mj in
      (* A simulator that looks [lookahead] entries past its current
         position (an instruction buffer holding the next [stations]
         entries) behaves generically only while that window stays inside
         the periodic region: its final periods see the epilogue (or the
         end of the trace) through the buffer and must be re-simulated in
         the splice, not telescoped. Shrink the usable region by the
         lookahead, rounded up to whole periods. *)
      let margin = (pr.lookahead + det.d_p_len - 1) / det.d_p_len in
      let r = (det.d_p_periods - margin - m) / c in
      if
        r >= 1
        && r * c >= min_skip
        && worthwhile ~n:det.d_n ~skip:(r * c * det.d_p_len)
      then begin
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
      Hashtbl.add det.d_seen fp (m, time, Option.map Metrics.snapshot det.d_scratch));
  if m >= budget || m >= det.d_p_periods then pr.next_pos <- max_int
  else begin
    pr.next_pos <- pr.next_pos + det.d_p_len;
    pr.addr_off <- pr.addr_off + det.d_p_stride
  end

let make_detector ~metrics (pd : Packed.period) ~n =
  let det =
    {
      d_probe =
        {
          period = pd.Packed.p_len;
          stride = pd.Packed.p_stride;
          next_pos = pd.Packed.p_start;
          addr_off = 0;
          lookahead = 0;
          fire = null_fire;
        };
      d_scratch = (if metrics then Some (Metrics.create ()) else None);
      d_seen = Hashtbl.create 97;
      d_p_start = pd.Packed.p_start;
      d_p_len = pd.Packed.p_len;
      d_p_stride = pd.Packed.p_stride;
      d_p_periods = pd.Packed.p_periods;
      d_n = n;
      d_found = None;
    }
  in
  det.d_probe.fire <- (fun ~pos ~time ~fp -> detector_fire det ~pos ~time ~fp);
  det

(* A repeat was found: build the splice, rerun the simulator on it without
   a probe, and combine in closed form. *)
let telescope det ~metrics ~trace ~sim =
  Atomic.incr n_telescoped;
  let info = Option.get det.d_found in
  let c = info.m_high - info.m_low in
  let keep = det.d_p_start + (info.m_high * det.d_p_len) in
  let skip = info.m_repeats * c * det.d_p_len in
  let shift = info.m_repeats * c * det.d_p_stride in
  let res =
    sim ~metrics ~probe:None (Packed.of_trace (splice trace ~keep ~skip ~shift))
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

let run ?metrics trace sim =
  let packed = Packed.cached trace in
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
          make_detector ~metrics:(metrics <> None) pd ~n:(Packed.length packed)
        in
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
        | exception Stop -> telescope det ~metrics ~trace ~sim
      end
