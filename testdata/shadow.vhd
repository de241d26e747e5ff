-- A process whose constant shadows the signal its sensitivity list names.
-- The list comes before the process's declarations, so it names the
-- architecture signal s: the process wakes on every event of s, while its
-- body reads the constant s, so y is '1' and n counts the wake-ups.
library ieee;
use ieee.std_logic_1164.all;

entity shadow is
end entity;

architecture rtl of shadow is
  signal s : std_logic := '0';
  signal y : std_logic := '0';
  signal n : integer := 0;
begin
  stim: process
  begin
    s <= '1' after 5 ns, '0' after 10 ns, '1' after 15 ns;
    wait;
  end process;

  p: process (s)
    constant s : std_logic := '1';
    variable k : integer := 0;
    variable first : std_logic := s;
  begin
    k := k + 1;
    n <= k;
    y <= s and first;
  end process;

  check: process (y, n)
  begin
    assert n = 0 or y = '1' report "y must follow the constant" severity error;
  end process;
end architecture;
