-- testdata/gen12.vhd: produced once by bench/vhdlgen with seed 1, 12 entities,
-- stimulus variant 0 (vhdlgen.New(Opts{Seed: 1, Entities: 12}).Source(0, "")).
-- The interpreted-trace goldens (testdata/golden/gen12.txt) are rendered from it.
-- generated by bench/vhdlgen; do not edit
library ieee;
use ieee.std_logic_1164.all;

entity e0_shift is
  generic (WIDTH : integer := 5);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e0_shift is
  signal reg : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  shift : process (clk)
  begin
    if rising_edge(clk) then
      reg <= reg(WIDTH-2 downto 0) & din;
    end if;
  end process;

  tap : dout <= reg(WIDTH-1) xor reg(1);
end architecture;

entity e1_count is
  generic (WIDTH : integer := 3);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e1_count is
  signal cnt : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  count : process (clk)
  begin
    if rising_edge(clk) then
      if din = '1' then
        cnt <= cnt + 4;
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;

  pick : dout <= cnt(0);
end architecture;

entity e2_fsm is
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e2_fsm is
  type state_t is (s0, s1, s2);
  signal st : state_t := s0;
begin
  step : process (clk)
  begin
    if rising_edge(clk) then
      case st is
        when s0 =>
          if din = '1' then
            st <= s2;
          else
            st <= s1;
          end if;
        when s1 =>
          if din = '1' then
            st <= s0;
          else
            st <= s2;
          end if;
        when s2 =>
          if din = '1' then
            st <= s0;
          else
            st <= s0;
          end if;
      end case;
    end if;
  end process;

  flag : dout <= '1' when st = s0 or st = s0 else '0';
end architecture;

entity e3_shift is
  generic (WIDTH : integer := 12);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e3_shift is
  signal reg : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  shift : process (clk)
  begin
    if rising_edge(clk) then
      reg <= reg(WIDTH-2 downto 0) & din;
    end if;
  end process;

  tap : dout <= reg(WIDTH-1) xor reg(4);
end architecture;

entity e4_count is
  generic (WIDTH : integer := 7);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e4_count is
  signal cnt : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  count : process (clk)
  begin
    if rising_edge(clk) then
      if din = '1' then
        cnt <= cnt + 4;
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;

  pick : dout <= cnt(1);
end architecture;

entity e5_fsm is
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e5_fsm is
  type state_t is (s0, s1, s2, s3, s4, s5);
  signal st : state_t := s0;
begin
  step : process (clk)
  begin
    if rising_edge(clk) then
      case st is
        when s0 =>
          if din = '1' then
            st <= s0;
          else
            st <= s1;
          end if;
        when s1 =>
          if din = '1' then
            st <= s5;
          else
            st <= s2;
          end if;
        when s2 =>
          if din = '1' then
            st <= s2;
          else
            st <= s3;
          end if;
        when s3 =>
          if din = '1' then
            st <= s3;
          else
            st <= s4;
          end if;
        when s4 =>
          if din = '1' then
            st <= s3;
          else
            st <= s5;
          end if;
        when s5 =>
          if din = '1' then
            st <= s5;
          else
            st <= s0;
          end if;
      end case;
    end if;
  end process;

  flag : dout <= '1' when st = s5 or st = s1 else '0';
end architecture;

entity e6_shift is
  generic (WIDTH : integer := 10);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e6_shift is
  signal reg : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  shift : process (clk)
  begin
    if rising_edge(clk) then
      reg <= reg(WIDTH-2 downto 0) & din;
    end if;
  end process;

  tap : dout <= reg(WIDTH-1) xor reg(7);
end architecture;

entity e7_count is
  generic (WIDTH : integer := 3);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e7_count is
  signal cnt : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  count : process (clk)
  begin
    if rising_edge(clk) then
      if din = '1' then
        cnt <= cnt + 4;
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;

  pick : dout <= cnt(2);
end architecture;

entity e8_fsm is
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e8_fsm is
  type state_t is (s0, s1, s2);
  signal st : state_t := s0;
begin
  step : process (clk)
  begin
    if rising_edge(clk) then
      case st is
        when s0 =>
          if din = '1' then
            st <= s1;
          else
            st <= s1;
          end if;
        when s1 =>
          if din = '1' then
            st <= s2;
          else
            st <= s2;
          end if;
        when s2 =>
          if din = '1' then
            st <= s0;
          else
            st <= s0;
          end if;
      end case;
    end if;
  end process;

  flag : dout <= '1' when st = s1 or st = s2 else '0';
end architecture;

entity e9_shift is
  generic (WIDTH : integer := 11);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e9_shift is
  signal reg : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  shift : process (clk)
  begin
    if rising_edge(clk) then
      reg <= reg(WIDTH-2 downto 0) & din;
    end if;
  end process;

  tap : dout <= reg(WIDTH-1) xor reg(1);
end architecture;

entity e10_count is
  generic (WIDTH : integer := 3);
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e10_count is
  signal cnt : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  count : process (clk)
  begin
    if rising_edge(clk) then
      if din = '1' then
        cnt <= cnt + 2;
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;

  pick : dout <= cnt(1);
end architecture;

entity e11_fsm is
  port (clk  : in std_logic;
        din  : in std_logic;
        dout : out std_logic);
end entity;

architecture rtl of e11_fsm is
  type state_t is (s0, s1, s2, s3);
  signal st : state_t := s0;
begin
  step : process (clk)
  begin
    if rising_edge(clk) then
      case st is
        when s0 =>
          if din = '1' then
            st <= s3;
          else
            st <= s1;
          end if;
        when s1 =>
          if din = '1' then
            st <= s0;
          else
            st <= s2;
          end if;
        when s2 =>
          if din = '1' then
            st <= s1;
          else
            st <= s3;
          end if;
        when s3 =>
          if din = '1' then
            st <= s3;
          else
            st <= s0;
          end if;
      end case;
    end if;
  end process;

  flag : dout <= '1' when st = s3 or st = s1 else '0';
end architecture;

entity gen_tb is end entity;

architecture sim of gen_tb is
  signal clk : std_logic := '0';
  signal stim : std_logic := '0';
  signal parity : std_logic := '0';
  signal n0 : std_logic := '0';
  signal n1 : std_logic := '0';
  signal n2 : std_logic := '0';
  signal n3 : std_logic := '0';
  signal n4 : std_logic := '0';
  signal n5 : std_logic := '0';
  signal n6 : std_logic := '0';
  signal n7 : std_logic := '0';
  signal n8 : std_logic := '0';
  signal n9 : std_logic := '0';
  signal n10 : std_logic := '0';
  signal n11 : std_logic := '0';
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  drive : process
  begin
    stim <= '0';
    wait for 14 ns;
    stim <= '1';
    wait for 7 ns;
    stim <= '0';
    wait for 7 ns;
    stim <= '1';
    wait for 11 ns;
    stim <= '1';
    wait for 16 ns;
    stim <= '0';
    wait for 6 ns;
    stim <= '0';
    wait for 7 ns;
    stim <= '1';
    wait for 12 ns;
    stim <= '1';
    wait for 16 ns;
    stim <= '0';
    wait for 14 ns;
    stim <= '1';
    wait for 5 ns;
    stim <= '0';
    wait for 5 ns;
  end process;

  u0 : entity work.e0_shift
    generic map (WIDTH => 9) port map (clk => clk, din => stim, dout => n0);
  u1 : entity work.e1_count
    generic map (WIDTH => 6) port map (clk => clk, din => n0, dout => n1);
  u2 : entity work.e2_fsm
    port map (clk => clk, din => n1, dout => n2);
  u3 : entity work.e3_shift
    generic map (WIDTH => 12) port map (clk => clk, din => n2, dout => n3);
  u4 : entity work.e4_count
    generic map (WIDTH => 6) port map (clk => clk, din => n3, dout => n4);
  u5 : entity work.e5_fsm
    port map (clk => clk, din => stim, dout => n5);
  u6 : entity work.e6_shift
    generic map (WIDTH => 9) port map (clk => clk, din => n5, dout => n6);
  u7 : entity work.e7_count
    generic map (WIDTH => 6) port map (clk => clk, din => n6, dout => n7);
  u8 : entity work.e8_fsm
    port map (clk => clk, din => n7, dout => n8);
  u9 : entity work.e9_shift
    generic map (WIDTH => 3) port map (clk => clk, din => n8, dout => n9);
  u10 : entity work.e10_count
    generic map (WIDTH => 7) port map (clk => clk, din => stim, dout => n10);
  u11 : entity work.e11_fsm
    port map (clk => clk, din => n10, dout => n11);

  fold : parity <= n4
    xor n9
    xor n11;

  watch : process (parity)
  begin
    if parity = '1' then
      report "parity high";
    end if;
  end process;
end architecture;
