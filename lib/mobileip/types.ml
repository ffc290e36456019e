type binding = {
  home : Netsim.Ipv4_addr.t;
  care_of : Netsim.Ipv4_addr.t;
  lifetime : float;
  registered_at : float;
  sequence : int;
}

let binding_expires_at b = b.registered_at +. b.lifetime
let binding_valid ~now b = now < binding_expires_at b

type reg_code = Reg_accepted | Reg_denied_auth | Reg_denied_stale

let reg_code_to_int = function
  | Reg_accepted -> 0
  | Reg_denied_auth -> 1
  | Reg_denied_stale -> 2

let reg_code_of_int = function
  | 0 -> Some Reg_accepted
  | 1 -> Some Reg_denied_auth
  | 2 -> Some Reg_denied_stale
  | _ -> None
