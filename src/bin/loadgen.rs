fn main() {
    amc::rpc::cli::loadgen::main();
}
