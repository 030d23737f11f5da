(* In-memory span store for the traced benchmark run, and its fold into
   per-layer self time.

   The benchmark wraps each call it makes into a layer's public function
   with {!wrap}.  The library's own spans (machine.run, count.*,
   engine.*, pool.task, service.scheduler.step) arrive through the
   ambient {!Perple_util.Trace_event} sink and are imported with
   {!import_trace}; both share that sink's clock (microseconds since the
   sink was created).  Parents are derived afterwards by containment on
   each domain ({!link}), so recording stays one mutex-protected push. *)

module Trace_event = Perple_util.Trace_event
module Json = Perple_util.Json

type span = {
  id : int;
  name : string;
  layer : string;
  tid : int;  (** Domain id of the recording domain. *)
  start_us : float;
  stop_us : float;
  args : (string * float) list;
  mutable parent : int;  (** [-1] for a root span. *)
  mutable campaign : string;  (** [""] when not known. *)
}

let dur s = s.stop_us -. s.start_us

let make ?(campaign = "") ?(args = []) ~id ~name ~layer ~tid ~start_us
    ~stop_us () =
  { id; name; layer; tid; start_us; stop_us; args; parent = -1; campaign }

(* --- recording -------------------------------------------------------- *)

let store : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

let reset () =
  Mutex.lock lock;
  store := [];
  next_id := 0;
  Mutex.unlock lock

let push ?campaign ?args ~name ~layer ~tid ~start_us ~stop_us () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  store :=
    make ?campaign ?args ~id ~name ~layer ~tid ~start_us ~stop_us ()
    :: !store;
  Mutex.unlock lock

let wrap ?campaign ?args ~layer name f =
  if not (Trace_event.enabled ()) then f ()
  else begin
    let start_us = Trace_event.now () in
    let finish () =
      push ?campaign ?args ~name ~layer
        ~tid:(Domain.self () :> int)
        ~start_us ~stop_us:(Trace_event.now ()) ()
    in
    Fun.protect ~finally:finish f
  end

(* The library's span names, by layer.  [service.session] spans cover a
   connection's whole lifetime, not work, so they are left out. *)
let layer_of_lib_span name =
  let prefixed p = String.starts_with ~prefix:p name in
  if name = "machine.run" then Some "sim"
  else if prefixed "count." then Some "count"
  else if prefixed "engine." then Some "engine"
  else if name = "pool.task" then Some "pool"
  else if name = "service.scheduler.step" then Some "scheduler"
  else None

let import_trace sink =
  let num = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match Json.member "traceEvents" (Trace_event.to_json sink) with
  | Some (Json.List events) ->
    List.iter
      (fun ev ->
        match
          ( Json.member "name" ev,
            Json.member "ph" ev,
            num (Json.member "ts" ev),
            num (Json.member "dur" ev),
            Json.member "tid" ev )
        with
        | Some (Json.String name), Some (Json.String "X"), Some ts, Some d,
          Some (Json.Int tid) -> (
          match layer_of_lib_span name with
          | None -> ()
          | Some layer ->
            let args =
              match Json.member "args" ev with
              | Some (Json.Obj kvs) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun f -> (k, f)) (num (Some v)))
                  kvs
              | _ -> []
            in
            push ~args ~name ~layer ~tid ~start_us:ts ~stop_us:(ts +. d) ())
        | _ -> ())
      events
  | _ -> ()

let collect () =
  Mutex.lock lock;
  let all = List.rev !store in
  Mutex.unlock lock;
  all

(* --- linking ---------------------------------------------------------- *)

(* Parent = innermost span of the same domain whose interval contains the
   span (ties: the longer, then the earlier-recorded one is outer).
   Campaign ids are inherited from ancestors; a span with no ancestor
   carrying one (a pool task on another domain) takes the campaign of a
   root span on any domain whose interval contains its start. *)
let link spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  Hashtbl.iter
    (fun _ group ->
      let a = Array.of_list group in
      Array.sort
        (fun x y ->
          match Float.compare x.start_us y.start_us with
          | 0 -> (
            match Float.compare (dur y) (dur x) with
            | 0 -> compare x.id y.id
            | c -> c)
          | c -> c)
        a;
      let stack = ref [] in
      Array.iter
        (fun s ->
          let rec settle () =
            match !stack with
            | top :: rest
              when not (s.start_us >= top.start_us && s.stop_us <= top.stop_us)
              ->
              stack := rest;
              settle ()
            | _ -> ()
          in
          settle ();
          (match !stack with
          | top :: _ ->
            s.parent <- top.id;
            if s.campaign = "" then s.campaign <- top.campaign
          | [] -> ());
          stack := s :: !stack)
        a)
    by_tid;
  let roots =
    List.filter (fun s -> s.parent = -1 && s.campaign <> "") spans
  in
  List.iter
    (fun s ->
      if s.campaign = "" then
        match
          List.find_opt
            (fun r -> r.start_us <= s.start_us && s.start_us <= r.stop_us)
            roots
        with
        | Some r -> s.campaign <- r.campaign
        | None -> ())
    spans;
  by_id

(* --- folding ---------------------------------------------------------- *)

type row = {
  layer : string;
  calls : int;
  busy_us : float;
      (** Summed duration of the layer's outermost spans: a span with an
          ancestor of the same layer is not counted twice. *)
  self_us : float;
      (** Summed span duration minus the time its direct children cover. *)
}

let self_times spans =
  let by_id = link spans in
  let child_us = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_us s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.parent)))
    spans;
  let self s =
    Float.max 0.0
      (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.id))
  in
  (by_id, self)

let fold spans =
  let by_id, self = self_times spans in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let rec outermost p =
        match Hashtbl.find_opt by_id p with
        | Some (a : span) -> a.layer <> s.layer && outermost a.parent
        | None -> true
      in
      let outermost = outermost s.parent in
      let calls, busy, self_us =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.layer)
      in
      Hashtbl.replace rows s.layer
        ( calls + 1,
          (if outermost then busy +. dur s else busy),
          self_us +. self s ))
    spans;
  Hashtbl.fold
    (fun layer (calls, busy_us, self_us) acc ->
      { layer; calls; busy_us; self_us } :: acc)
    rows []
  |> List.sort (fun a b -> Float.compare b.self_us a.self_us)

(* Self time summed per campaign id, over every layer. *)
let self_by_campaign spans =
  let _, self = self_times spans in
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.campaign <> "" then
        Hashtbl.replace t s.campaign
          (self s +. Option.value ~default:0.0 (Hashtbl.find_opt t s.campaign)))
    spans;
  t

(* --- output ----------------------------------------------------------- *)

let chrome_json spans =
  let event s =
    Json.Obj
      ([
         ("name", Json.String s.name);
         ("cat", Json.String s.layer);
         ("ph", Json.String "X");
         ("ts", Json.Float s.start_us);
         ("dur", Json.Float (dur s));
         ("pid", Json.Int 1);
         ("tid", Json.Int s.tid);
       ]
      @ [
          ( "args",
            Json.Obj
              ([ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]
              @ (if s.campaign = "" then []
                 else [ ("campaign", Json.String s.campaign) ])
              @ List.map (fun (k, v) -> (k, Json.Float v)) s.args) );
        ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ms");
    ]
