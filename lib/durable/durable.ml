let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read path = In_channel.with_open_bin path In_channel.input_all

let tmp_infix = ".tmp."

let write ?(torn = false) path text =
  let tmp = Printf.sprintf "%s%s%d" path tmp_infix (Unix.getpid ()) in
  let text = if torn then String.sub text 0 (String.length text / 2) else text in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  if not torn then Sys.rename tmp path

let tmp_owner name =
  let nl = String.length name and il = String.length tmp_infix in
  let rec find i =
    if i + il > nl then None
    else if String.sub name i il = tmp_infix then
      int_of_string_opt (String.sub name (i + il) (nl - i - il))
    else find (i + 1)
  in
  find 0

(* ---------- the CRC envelope ---------- *)

let trailer covered = Printf.sprintf "crc %08lX\n" (Zip.Crc32.digest covered)

let seal ~magic ~version body =
  let covered = Printf.sprintf "%s %d\n%s" magic version body in
  covered ^ trailer covered

type error = Truncated | Bad_crc | Wrong_magic | Version of int

let unseal ~magic ~version text =
  let len = String.length text in
  (* the trailer is the last line, and a line ends in a newline *)
  let i =
    if len = 0 || text.[len - 1] <> '\n' then len
    else Option.fold ~none:0 ~some:succ (String.rindex_from_opt text (len - 2) '\n')
  in
  let covered = String.sub text 0 i and last = String.sub text i (len - i) in
  if not (String.starts_with ~prefix:"crc " last) then Error Truncated
  else if last <> trailer covered then Error Bad_crc
  else
    (* [covered] is empty or ends in a newline *)
    let j = Option.value (String.index_opt covered '\n') ~default:0 in
    match String.split_on_char ' ' (String.sub covered 0 j) with
    | [ m; v ] when m = magic -> (
        match int_of_string_opt v with
        | Some v when v = version -> Ok (String.sub covered (j + 1) (i - j - 1))
        | Some v -> Error (Version v)
        | None -> Error Wrong_magic)
    | _ -> Error Wrong_magic

(* ---------- owners and sweeps ---------- *)

let owner_alive pid =
  pid <= 0
  ||
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let sweep ?(salvage = ignore) ~dir ~owner () =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.sort compare names;
      Array.fold_left
        (fun removed name ->
          match owner name with
          | Some pid when not (owner_alive pid) -> (
              let path = Filename.concat dir name in
              salvage path;
              match Sys.remove path with
              | () -> removed + 1
              | exception Sys_error _ -> removed)
          | _ -> removed)
        0 names
