fn main() {
    amc::rpc::cli::paxos_coord::main();
}
