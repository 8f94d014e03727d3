// The Div chart shared by the fleet and replay fault tests: one state
// whose GO routine writes 100 / Den to Out, so an instance whose Den port
// reads 0 faults on its first GO ("TEP0: division by zero at PC 8").
#pragma once

#include <memory>

#include "actionlang/parser.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"

namespace pscp::testcharts {

inline std::shared_ptr<const machine::ChartImage> divImage() {
  // ChartImage keeps references into the chart and the program: the
  // returned pointer's control block owns them.
  struct Bundle {
    statechart::Chart chart = statechart::parseChart(R"chart(
chart Div;
event GO;
port Den data in width 16 address 0x10;
port Out data out width 16 address 0x12;
orstate Top { contains S; default S; }
basicstate S { transition { target S; label "GO/Div()"; } }
)chart");
    actionlang::Program actions =
        actionlang::parseActionSource("void Div() { write_port(Out, 100 / read_port(Den)); }");
    std::unique_ptr<const machine::ChartImage> image;
  };
  auto bundle = std::make_shared<Bundle>();
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.hasMulDiv = true;
  bundle->image = std::make_unique<const machine::ChartImage>(bundle->chart,
                                                              bundle->actions, arch);
  return {bundle, bundle->image.get()};
}

}  // namespace pscp::testcharts
