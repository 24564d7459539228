fn main() {
    amc::rpc::cli::site_server::main();
}
