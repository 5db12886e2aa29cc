let mutate text =
  let open QCheck.Gen in
  let n = String.length text in
  if n = 0 then map (String.make 1) char
  else
    let at = 0 -- (n - 1) in
    frequency
      [
        ( 3,
          map2
            (fun i c -> String.mapi (fun j d -> if j = i then c else d) text)
            at char );
        ( 2,
          map2
            (fun i c ->
              String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i))
            (0 -- n) char );
        ( 2,
          map
            (fun i -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1))
            at );
        (1, map (fun i -> String.sub text 0 i) at);
      ]

let mutated texts =
  let open QCheck.Gen in
  let rec times k text =
    if k = 0 then return text else mutate text >>= times (k - 1)
  in
  pair (oneofl texts) (1 -- 3) >>= fun (text, k) -> times k text
