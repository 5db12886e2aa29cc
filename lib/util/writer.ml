type batch = {
  mutable pending : int;  (* submitted closures not yet run *)
  mutable failure : (exn * Printexc.raw_backtrace) option;  (* the first *)
  mutable drained : bool;
}

type worker = {
  queue : (batch * (unit -> unit)) Queue.t;
  work : Condition.t;  (* a closure was queued, or [stop] was set *)
  mutable stop : bool;
}

(* One lock guards every batch, the open-batch count and the current
   worker. A worker being stopped keeps its own queue and condition, so
   a new worker spawned while the old one is joined never shares them. *)
let lock = Mutex.create ()
let settled = Condition.create ()
let open_batches = ref 0
let current : (worker * unit Domain.t) option ref = ref None
let spawned = Atomic.make 0

(* Run one closure and account it to its batch, with [lock] free. *)
let run b f =
  let failure =
    match f () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.protect lock (fun () ->
      b.pending <- b.pending - 1;
      if b.failure = None then b.failure <- failure;
      Condition.broadcast settled)

let rec serve w =
  Mutex.lock lock;
  while Queue.is_empty w.queue && not w.stop do
    Condition.wait w.work lock
  done;
  match Queue.take_opt w.queue with
  | None -> Mutex.unlock lock
  | Some (b, f) ->
      Mutex.unlock lock;
      run b f;
      serve w

(* With [lock] held. [None] when no domain can be spawned. *)
let worker () =
  match !current with
  | Some (w, _) -> Some w
  | None -> (
      let w =
        { queue = Queue.create (); work = Condition.create (); stop = false }
      in
      match Domain.spawn (fun () -> serve w) with
      | d ->
          Atomic.incr spawned;
          current := Some (w, d);
          Some w
      | exception _ -> None)

let batch () =
  Mutex.protect lock (fun () ->
      incr open_batches;
      { pending = 0; failure = None; drained = false })

let submit b f =
  let queued =
    Mutex.protect lock (fun () ->
        if b.drained then invalid_arg "Writer.submit: batch already drained";
        b.pending <- b.pending + 1;
        match worker () with
        | Some w ->
            Queue.push (b, f) w.queue;
            Condition.signal w.work;
            true
        | None -> false)
  in
  if not queued then run b f

let drain b =
  let first, retired =
    Mutex.protect lock (fun () ->
        while b.pending > 0 do
          Condition.wait settled lock
        done;
        if b.drained then (false, None)
        else begin
          b.drained <- true;
          decr open_batches;
          match !current with
          | Some (w, d) when !open_batches = 0 ->
              current := None;
              w.stop <- true;
              Condition.signal w.work;
              (true, Some d)
          | _ -> (true, None)
        end)
  in
  Option.iter Domain.join retired;
  match b.failure with
  | Some (e, bt) when first -> Printexc.raise_with_backtrace e bt
  | _ -> ()

let started () = Atomic.get spawned
