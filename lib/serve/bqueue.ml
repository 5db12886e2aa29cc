type 'a t = {
  items : 'a Queue.t;
  mutable is_closed : bool;
  lock : Mutex.t;
  not_empty : Condition.t;
}

let create () =
  {
    items = Queue.create ();
    is_closed = false;
    lock = Mutex.create ();
    not_empty = Condition.create ();
  }

let push t x =
  Mutex.protect t.lock (fun () ->
      if t.is_closed then false
      else begin
        Queue.push x t.items;
        Condition.signal t.not_empty;
        true
      end)

let pop t =
  Mutex.protect t.lock (fun () ->
      while Queue.is_empty t.items && not t.is_closed do
        Condition.wait t.not_empty t.lock
      done;
      Queue.take_opt t.items)

let close t =
  Mutex.protect t.lock (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.not_empty)
