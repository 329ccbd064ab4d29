module Counter = Dsd_obs.Counter

type address =
  | Unix_domain of string
  | Tcp of { host : string; port : int }

type t = { thread : Thread.t }

let bind_listen addr =
  match addr with
  | Unix_domain path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    fd
  | Tcp { host; port } ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 16;
    fd

let cleanup addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with
  | Unix_domain path -> (
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

(* A peer closing mid-response must surface as EPIPE, not SIGPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* Best-effort error frame: the peer may already be gone, and that is
   its problem, not the accept loop's. *)
let try_send_error conn msg =
  let tag, body = Protocol.encode_response (Protocol.Error_r msg) in
  try Protocol.write_frame conn ~tag body
  with Protocol.Error _ | Unix.Unix_error _ -> ()

(* One connection: read frames until the peer closes, a frame is
   malformed, or a Shutdown request arrives.  Returns [`Stop] only for
   Shutdown. *)
let handle_connection ~state conn =
  let respond resp =
    let tag, body = Protocol.encode_response resp in
    Protocol.write_frame conn ~tag body
  in
  let rec loop () =
    match Protocol.read_frame conn with
    | None -> `Continue
    | Some (tag, body) -> (
      match Protocol.decode_request tag body with
      | exception Protocol.Error msg ->
        Counter.incr Counter.Serve_protocol_errors;
        try_send_error conn ("bad request: " ^ msg);
        `Continue
      | Protocol.Shutdown ->
        (try respond Protocol.Shutdown_r
         with Protocol.Error _ | Unix.Unix_error _ -> ());
        `Stop
      | req ->
        let resp =
          try State.handle state req
          with e ->
            Protocol.Error_r ("internal error: " ^ Printexc.to_string e)
        in
        respond resp;
        loop ())
  in
  try loop () with
  | Protocol.Error msg ->
    (* Malformed frame (truncated, oversized, wrong version). *)
    Counter.incr Counter.Serve_protocol_errors;
    try_send_error conn ("bad frame: " ^ msg);
    `Continue
  | End_of_file -> `Continue
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
    (* Receive timeout: the peer went silent mid-request. *)
    Counter.incr Counter.Serve_protocol_errors;
    `Continue
  | Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Continue

let rec accept_retry fd =
  try Unix.accept fd with Unix.Unix_error (EINTR, _, _) -> accept_retry fd

(* The accept loop proper, over an already-listening socket. *)
let serve_loop ~receive_timeout_s ~state ~addr fd =
  Fun.protect
    ~finally:(fun () -> cleanup addr fd)
    (fun () ->
      let stop = ref false in
      while not !stop do
        let conn, _peer = accept_retry fd in
        (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO receive_timeout_s
         with Unix.Unix_error _ -> ());
        let verdict =
          try handle_connection ~state conn
          with e ->
            (* Defence in depth: nothing above should raise, but an
               accept loop must outlive anything one connection does. *)
            try_send_error conn ("internal error: " ^ Printexc.to_string e);
            `Continue
        in
        (try Unix.close conn with Unix.Unix_error _ -> ());
        if verdict = `Stop then stop := true
      done)

(* SO_RCVTIMEO reads 0 and negative values as "no timeout" and rejects
   nan and infinity, so only a finite positive value bounds a silent
   peer. *)
let check_timeout s =
  if not (Float.is_finite s && s > 0.) then
    invalid_arg
      (Printf.sprintf "Server: receive timeout must be positive (got %g)" s)

let run ?(receive_timeout_s = 30.) ~state addr =
  check_timeout receive_timeout_s;
  ignore_sigpipe ();
  let fd = bind_listen addr in
  serve_loop ~receive_timeout_s ~state ~addr fd

let start ?(receive_timeout_s = 30.) ~state addr =
  check_timeout receive_timeout_s;
  ignore_sigpipe ();
  (* Bind in the calling thread so a returned handle is connectable;
     only the accept loop moves to the background. *)
  let fd = bind_listen addr in
  { thread =
      Thread.create (fun () -> serve_loop ~receive_timeout_s ~state ~addr fd) () }

let join t = Thread.join t.thread
