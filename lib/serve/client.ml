type t = { fd : Unix.file_descr }

let connect (addr : Server.address) =
  let domain, sockaddr =
    match addr with
    | Server.Unix_domain path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp { host; port } ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> { fd }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let call t req =
  let tag, body = Protocol.encode_request req in
  Protocol.write_frame t.fd ~tag body;
  match Protocol.read_frame t.fd with
  | None -> raise (Protocol.Error "server closed the connection")
  | Some (tag, body) -> Protocol.decode_response tag body

let once addr req =
  let t = connect addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> call t req)
