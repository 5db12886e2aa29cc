let clamp n = if n < 1 then 1 else if n > 64 then 64 else n

let parse_jobs s =
  let t = String.trim s in
  if t = "" then Error "is empty"
  else
    match int_of_string_opt t with
    | None -> Error "is not a number"
    | Some n when n < 1 -> Error "must be at least 1"
    | Some n -> Ok (clamp n)

(* Warn at most once per process: MFU_JOBS is consulted on every [map]
   without an explicit worker count, and a warning per call would swamp
   stderr. *)
let warned = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt "MFU_JOBS" with
  | None -> None
  | Some raw -> (
      match parse_jobs raw with
      | Ok n -> Some n
      | Error reason ->
          if not (Atomic.exchange warned true) then
            Printf.eprintf
              "[pool] warning: MFU_JOBS=%S %s; running sequentially\n%!" raw
              reason;
          Some 1)

let override : int option Atomic.t = Atomic.make None

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> clamp (Domain.recommended_domain_count ())

let set_jobs j = Atomic.set override (Option.map clamp j)

let current_jobs () =
  match Atomic.get override with Some n -> n | None -> default_jobs ()

(* [try_map] calls currently executing, from any thread or domain. *)
let inflight_count = Atomic.make 0

let inflight () = Atomic.get inflight_count

let sequential f arr =
  Array.map (fun x -> try Ok (f x) with e -> Error e) arr

(* Elements claimed per counter bump. Small jobs dominate the sweep
   workloads, so the default aims at enough chunks for stealing to balance
   (8 per worker) while amortizing the contended fetch-and-add on large
   inputs. Results are always written by input index, so chunking cannot
   affect ordering. *)
let auto_chunk ~jobs n = max 1 (n / (jobs * 8))

let parallel ~jobs ~chunk f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next chunk in
      if i < n then (
        let stop = min n (i + chunk) in
        for k = i to stop - 1 do
          let r = try Ok (f arr.(k)) with e -> Error e in
          results.(k) <- Some r
        done;
        loop ())
    in
    loop ()
  in
  let spawned = ref [] in
  (* On any spawn failure, keep whatever did spawn: the self-scheduling
     counter lets any subset of workers (including just this domain) drain
     the queue to completion. *)
  (try
     for _ = 2 to jobs do
       spawned := Domain.spawn worker :: !spawned
     done
   with _ -> ());
  worker ();
  List.iter Domain.join !spawned;
  Array.map
    (function Some r -> r | None -> Error (Failure "Pool: missing result"))
    results

let try_map ?jobs ?chunk f xs =
  let arr = Array.of_list xs in
  let jobs =
    match jobs with Some j -> clamp j | None -> current_jobs ()
  in
  let jobs = min jobs (max 1 (Array.length arr)) in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Pool.try_map: chunk < 1"
    | None -> auto_chunk ~jobs (Array.length arr)
  in
  Atomic.incr inflight_count;
  let out =
    Fun.protect
      ~finally:(fun () -> Atomic.decr inflight_count)
      (fun () ->
        if jobs <= 1 then sequential f arr else parallel ~jobs ~chunk f arr)
  in
  Array.to_list out

let map ?jobs ?chunk f xs =
  List.map
    (function Ok v -> v | Error e -> raise e)
    (try_map ?jobs ?chunk f xs)
