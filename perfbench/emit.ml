(* JSON output with every float at full precision (the library printer
   rounds to six decimals, which would flatten sub-millisecond timings). *)

module Json = Perple_util.Json

let rec add b = function
  | Json.Float f when Float.is_finite f && not (Float.is_integer f) ->
    Buffer.add_string b (Printf.sprintf "%.17g" f)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as v ->
    Buffer.add_string b (Json.to_string v)
  | Json.List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add b v)
      l;
    Buffer.add_char b ']'
  | Json.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.to_string (Json.String k));
        Buffer.add_char b ':';
        add b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  add b j;
  Buffer.contents b

let write_file ~path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string j);
      output_char oc '\n')
