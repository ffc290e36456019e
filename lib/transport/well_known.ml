let telnet = 23
let dns = 53
let dhcp_server = 67
let dhcp_client = 68
let http = 80
let nfs = 2049
let mip_registration = 434
let ephemeral_base = 49152
