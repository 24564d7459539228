fn main() {
    amc::rpc::cli::coord_server::main();
}
