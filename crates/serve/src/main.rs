//! `cgnn-serve`: the surrogate-as-a-service binary.
//!
//! Reads its entire configuration from the registered `CGNN_SERVE_*`
//! environment knobs (see the README table or `docs/SERVING.md`), binds,
//! prints one line of startup summary, and serves until killed.

use cgnn_serve::{ServeConfig, Server};

fn main() {
    let config = ServeConfig::from_env();
    let server = match Server::start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgnn-serve: startup failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "cgnn-serve listening on {} (model={} elems={} nodes={} replicas={} queue_cap={} \
         ckpt_dir={})",
        server.addr(),
        config.model_name,
        config.elems,
        server.n_local(),
        config.replicas,
        config.queue_cap,
        config
            .ckpt_dir
            .as_ref()
            .map_or("<none>".to_string(), |d| d.display().to_string()),
    );
    server.join();
}
