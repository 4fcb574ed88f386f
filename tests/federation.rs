//! Hierarchical federation (§IV-A): "The ALICE LHC experiment uses Scalla
//! to provide world-wide file access by clustering storage over 60 sites
//! in 20 countries." A global redirector sits above per-site managers
//! (which are just supervisor-role cmsds); sites are WAN-distant and
//! export site-prefixed namespaces.

use scalla::cache::CacheConfig;
use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::downcast;
use std::sync::Arc;

struct Federation {
    net: SimNet,
    directory: Arc<Directory>,
    global: Addr,
    sites: Vec<Addr>,
    servers: Vec<Vec<Addr>>,
}

/// Builds `n_sites` sites with `per_site` servers each. Site `s` exports
/// `/fed/site{s}` plus the shared `/fed/common` prefix.
fn build(n_sites: usize, per_site: usize) -> Federation {
    let mut net = SimNet::new(LatencyModel::fixed(Nanos::from_micros(25)), 21);
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let global =
        net.add_node(Box::new(CmsdNode::new(CmsdConfig::manager("global"), clock.clone())));
    directory.register("global", global);

    let mut sites = Vec::new();
    let mut servers = Vec::new();
    for s in 0..n_sites {
        let name = format!("site{s}-mgr");
        let mut cfg = CmsdConfig::supervisor(&name, global);
        cfg.exports = vec![format!("/fed/site{s}"), "/fed/common".to_string()];
        cfg.cache = CacheConfig::default();
        let site = net.add_node(Box::new(CmsdNode::new(cfg, clock.clone())));
        directory.register(&name, site);
        // WAN: 40 ms from the global redirector to each site head.
        net.set_link(global, site, LatencyModel::fixed(Nanos::from_millis(40)));
        let mut site_servers = Vec::new();
        for k in 0..per_site {
            let sname = format!("site{s}-srv{k}");
            let mut scfg = ServerConfig::new(&sname, site);
            scfg.exports = vec![format!("/fed/site{s}"), "/fed/common".to_string()];
            let addr = net.add_node(Box::new(ServerNode::new(scfg)));
            directory.register(&sname, addr);
            site_servers.push(addr);
        }
        sites.push(site);
        servers.push(site_servers);
    }
    Federation { net, directory, global, sites, servers }
}

fn seed(fed: &mut Federation, site: usize, srv: usize, path: &str) {
    let addr = fed.servers[site][srv];
    downcast::<ServerNode>(fed.net.node_mut(addr)).fs_mut().put_online(path, 1 << 12);
}

fn run_client(fed: &mut Federation, ops: Vec<ClientOp>) -> Vec<scalla::client::OpResult> {
    let mut ccfg = ClientConfig::new(fed.global, fed.directory.clone(), ops);
    ccfg.request_timeout = Nanos::from_secs(10);
    let client = fed.net.add_node(Box::new(ClientNode::new(ccfg)));
    fed.net.kill(client);
    fed.net.revive(client);
    fed.net.run_for(Nanos::from_secs(120));
    downcast::<ClientNode>(fed.net.node_mut(client)).results().to_vec()
}

#[test]
fn global_redirector_routes_to_the_owning_site() {
    let mut fed = build(3, 2);
    seed(&mut fed, 2, 1, "/fed/site2/dataset.root");
    fed.net.start();
    fed.net.run_for(Nanos::from_secs(3));

    let r = run_client(
        &mut fed,
        vec![ClientOp::Open { path: "/fed/site2/dataset.root".into(), write: false }],
    );
    assert_eq!(r[0].outcome, OpOutcome::Ok, "{r:?}");
    assert_eq!(r[0].server.as_deref(), Some("site2-srv1"));
    assert_eq!(r[0].redirects, 2, "global -> site head -> server");
    // The walk crossed the WAN twice (query + client hop): latency is
    // dominated by the 40 ms links.
    assert!(r[0].latency() >= Nanos::from_millis(80), "{}", r[0].latency());
}

#[test]
fn prefix_scoping_limits_the_flood_to_eligible_sites() {
    let mut fed = build(3, 2);
    seed(&mut fed, 1, 0, "/fed/site1/f.root");
    fed.net.start();
    fed.net.run_for(Nanos::from_secs(3));
    let r = run_client(
        &mut fed,
        vec![ClientOp::Open { path: "/fed/site1/f.root".into(), write: false }],
    );
    assert_eq!(r[0].outcome, OpOutcome::Ok);
    // V_m at the global redirector contains only site1 for this prefix, so
    // only that site was flooded: the other site heads must have no cache
    // entry (they were never asked) and no lookups at all for the path.
    for &other in [0usize, 2].iter() {
        let site = fed.sites[other];
        let cmsd = downcast::<CmsdNode>(fed.net.node_mut(site));
        assert!(
            cmsd.cache().peek("/fed/site1/f.root").is_none(),
            "site{other} must never have been queried"
        );
    }
}

#[test]
fn common_namespace_found_at_any_hosting_site() {
    let mut fed = build(2, 2);
    // The shared dataset exists at both sites.
    seed(&mut fed, 0, 0, "/fed/common/shared.root");
    seed(&mut fed, 1, 1, "/fed/common/shared.root");
    fed.net.start();
    fed.net.run_for(Nanos::from_secs(3));
    let r = run_client(
        &mut fed,
        vec![
            ClientOp::Open { path: "/fed/common/shared.root".into(), write: false },
            ClientOp::Open { path: "/fed/common/shared.root".into(), write: false },
            ClientOp::Open { path: "/fed/common/shared.root".into(), write: false },
            ClientOp::Open { path: "/fed/common/shared.root".into(), write: false },
        ],
    );
    assert!(r.iter().all(|x| x.outcome == OpOutcome::Ok), "{r:?}");
    let via: Vec<&str> = r.iter().map(|x| x.server.as_deref().unwrap()).collect();
    for v in &via {
        assert!(v.starts_with("site0-") || v.starts_with("site1-"));
    }
    // Round-robin across sites: over four opens both sites must serve.
    let sites_used: std::collections::HashSet<&str> = via.iter().map(|v| &v[..5]).collect();
    assert_eq!(sites_used.len(), 2, "selection should rotate sites: {via:?}");
}

#[test]
fn site_outage_fails_over_to_surviving_replica_site() {
    let mut fed = build(2, 2);
    seed(&mut fed, 0, 0, "/fed/common/ha.root");
    seed(&mut fed, 1, 0, "/fed/common/ha.root");
    fed.net.start();
    fed.net.run_for(Nanos::from_secs(3));

    // Site 0 (head + servers) goes dark.
    let dead_head = fed.sites[0];
    fed.net.kill(dead_head);
    for &s in fed.servers[0].clone().iter() {
        fed.net.kill(s);
    }
    fed.net.run_for(Nanos::from_secs(10)); // global notices the silence

    let r = run_client(
        &mut fed,
        vec![ClientOp::Open { path: "/fed/common/ha.root".into(), write: false }],
    );
    assert_eq!(r[0].outcome, OpOutcome::Ok, "surviving site must serve: {r:?}");
    assert!(r[0].server.as_deref().unwrap().starts_with("site1-"));
}
