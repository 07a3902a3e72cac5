//! Shared by the integration tests that run against a started server.

/// The `host:port` in `MONOMI_SERVER`: the externally started
/// `monomi-server` an `--ignored` test runs against.
pub fn external_server() -> String {
    std::env::var("MONOMI_SERVER").expect("MONOMI_SERVER=host:port")
}
