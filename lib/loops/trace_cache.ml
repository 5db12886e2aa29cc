type kind = Raw | Scheduled
type stats = { hits : int; misses : int; entries : int }

let lock = Mutex.create ()
let table : (int * string * kind, Mfu_exec.Trace.t) Hashtbl.t =
  Hashtbl.create 32
let hit_count = ref 0
let miss_count = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Generation runs under the lock: coarse, but it is exactly what gives the
   once-per-process guarantee, and the experiment engine prewarms the cache
   sequentially before fanning out, so workers only ever take the cheap
   read path here. *)
let find_or_generate ~number ~sizes ~kind gen =
  with_lock (fun () ->
      let key = (number, sizes, kind) in
      match Hashtbl.find_opt table key with
      | Some t ->
          incr hit_count;
          t
      | None ->
          incr miss_count;
          let t = gen () in
          Hashtbl.add table key t;
          (* Pre-pack while we already hold the generation path: every
             simulator fast path starts from the packed form, and packing
             here (under this cache's once-per-process guarantee) keeps the
             work out of the first simulation of each workload. *)
          ignore (Mfu_exec.Packed.cached t : Mfu_exec.Packed.t);
          t)

let stats () =
  with_lock (fun () ->
      {
        hits = !hit_count;
        misses = !miss_count;
        entries = Hashtbl.length table;
      })

let clear () =
  with_lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)
