#include "src/topo/server.h"

namespace snicsim {

RnicServer::RnicServer(Simulator* sim, Fabric* fabric, const TestbedParams& tp,
                       const std::string& name)
    : host_mem_(sim, name + ".hostmem", tp.host_memory),
      pcie0_(sim, name + ".pcie0", tp.pcie_bandwidth, tp.pcie0_propagation),
      nic_(sim, tp.rnic),
      host_cpu_(sim, name + ".hostcpu", name + ".host", tp.host_cores,
                tp.host_msg_service_rnic, tp.host_notify_delay) {
  EndpointParams ep;
  ep.name = name + ".host";
  ep.pcie_mtu = tp.host_pcie_mtu;
  ep.read_completer = tp.host_read_completer;
  ep.write_completer = tp.host_write_completer;
  PciePath to_mem;
  to_mem.Add(&pcie0_, LinkDir::kDown);
  host_ep_ = nic_.AddEndpoint(ep, to_mem, &host_mem_);
  nic_.SetSendHandler(host_ep_, host_cpu_.Handler());
  port_ = fabric->AddPort(name + ".port", tp.rnic.network_bandwidth);
}

BluefieldServer::BluefieldServer(Simulator* sim, Fabric* fabric, const TestbedParams& tp,
                                 const std::string& name)
    : host_mem_(sim, name + ".hostmem", tp.host_memory),
      soc_mem_(sim, name + ".socmem", tp.soc_memory),
      switch_(name + ".psw", tp.switch_forward),
      pcie0_(sim, name + ".pcie0", tp.pcie_bandwidth, tp.pcie0_propagation),
      pcie1_(sim, name + ".pcie1", tp.pcie_bandwidth, tp.pcie1_propagation),
      soc_port_(sim, name + ".socport", tp.pcie_bandwidth, tp.soc_port_propagation),
      nic_(sim, tp.bluefield_nic),
      host_cpu_(sim, name + ".hostcpu", name + ".host", tp.host_cores,
                tp.host_msg_service_snic, tp.host_notify_delay),
      soc_cpu_(sim, name + ".soccpu", name + ".soc", tp.soc_cores, tp.soc_msg_service,
               tp.soc_notify_delay) {
  // Host endpoint: NIC cores -> PCIe1 -> switch -> PCIe0 -> host memory.
  {
    EndpointParams ep;
    ep.name = name + ".host";
    ep.pcie_mtu = tp.host_pcie_mtu;
    ep.read_completer = tp.host_read_completer;
    ep.write_completer = tp.host_write_completer;
    PciePath to_mem;
    to_mem.Add(&pcie1_, LinkDir::kUp);
    to_mem.Add(&pcie0_, LinkDir::kDown, &switch_);
    host_ep_ = nic_.AddEndpoint(ep, to_mem, &host_mem_);
    nic_.SetSendHandler(host_ep_, host_cpu_.Handler());
  }
  // SoC endpoint: NIC cores -> PCIe1 -> switch -> direct SoC port. The SoC
  // memory command rates are the throughput limiter, so no additional
  // completer servers are configured (paper §3.2).
  {
    EndpointParams ep;
    ep.name = name + ".soc";
    ep.pcie_mtu = tp.soc_pcie_mtu;
    PciePath to_mem;
    to_mem.Add(&pcie1_, LinkDir::kUp);
    to_mem.Add(&soc_port_, LinkDir::kDown, &switch_);
    soc_ep_ = nic_.AddEndpoint(ep, to_mem, &soc_mem_);
    nic_.SetSendHandler(soc_ep_, soc_cpu_.Handler());
  }
  port_ = fabric->AddPort(name + ".port", tp.bluefield_nic.network_bandwidth);
}

void RnicServer::RegisterMetrics(MetricsRegistry* reg) {
  host_mem_.RegisterMetrics(reg);
  pcie0_.RegisterMetrics(reg);
  port_->RegisterMetrics(reg);
  nic_.RegisterMetrics(reg);
  host_cpu_.RegisterMetrics(reg);
}

void BluefieldServer::RegisterMetrics(MetricsRegistry* reg) {
  host_mem_.RegisterMetrics(reg);
  soc_mem_.RegisterMetrics(reg);
  switch_.RegisterMetrics(reg);
  pcie0_.RegisterMetrics(reg);
  pcie1_.RegisterMetrics(reg);
  soc_port_.RegisterMetrics(reg);
  port_->RegisterMetrics(reg);
  nic_.RegisterMetrics(reg);
  host_cpu_.RegisterMetrics(reg);
  soc_cpu_.RegisterMetrics(reg);
}

}  // namespace snicsim
