(* Host fingerprint recorded with every result, and the comparison rule:
   numbers from different hosts are never compared. *)

module Json = Perple_util.Json

type t = {
  nproc : int;
  cpu_model : string;
  ocaml : string;
  commit : string;
  profile : string;
}

let cpu_model () =
  let lines =
    String.split_on_char '\n'
      (Option.value ~default:"" (Proc.read_file "/proc/cpuinfo"))
  in
  match List.find_opt (String.starts_with ~prefix:"model name") lines with
  | None -> "unknown"
  | Some line -> (
    match String.index_opt line ':' with
    | None -> "unknown"
    | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let env_or name default =
  match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

let current () =
  {
    nproc = Domain.recommended_domain_count ();
    cpu_model = cpu_model ();
    ocaml = Sys.ocaml_version;
    commit = env_or "PERFBENCH_COMMIT" "unknown";
    profile = env_or "PERFBENCH_PROFILE" "dev";
  }

let to_json h =
  Json.Obj
    [
      ("nproc", Json.Int h.nproc);
      ("cpu_model", Json.String h.cpu_model);
      ("ocaml", Json.String h.ocaml);
      ("commit", Json.String h.commit);
      ("profile", Json.String h.profile);
    ]

let of_json j =
  match
    ( Json.member "nproc" j,
      Json.member "cpu_model" j,
      Json.member "ocaml" j,
      Json.member "commit" j,
      Json.member "profile" j )
  with
  | ( Some (Json.Int nproc),
      Some (Json.String cpu_model),
      Some (Json.String ocaml),
      Some (Json.String commit),
      Some (Json.String profile) ) ->
    Ok { nproc; cpu_model; ocaml; commit; profile }
  | _ -> Error "malformed host fingerprint"

(* The commit is expected to differ (parent against change); every other
   field must match for two results to be comparable. *)
let comparable a b =
  let diffs =
    List.filter_map
      (fun (what, same) -> if same then None else Some what)
      [
        ("nproc", a.nproc = b.nproc);
        ("cpu_model", a.cpu_model = b.cpu_model);
        ("ocaml", a.ocaml = b.ocaml);
        ("profile", a.profile = b.profile);
      ]
  in
  if diffs = [] then Ok ()
  else Error ("host fingerprints differ in " ^ String.concat ", " diffs)
